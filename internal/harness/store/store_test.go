package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validID is a well-formed key.
var validID = strings.Repeat("0a", 32)

// TestRoundTrip: a Put blob reads back byte for byte, and a later Put
// replaces it.
func TestRoundTrip(t *testing.T) {
	d := Dir(t.TempDir())
	if _, ok := d.Get(validID); ok {
		t.Fatal("Get hit on an empty store")
	}
	for _, blob := range []string{`{"v":1}`, `{"v":2,"longer":true}`} {
		if err := d.Put(validID, []byte(blob)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, ok := d.Get(validID)
		if !ok || string(got) != blob {
			t.Fatalf("Get = %q, %v; want %q", got, ok, blob)
		}
	}
	if _, err := os.Stat(filepath.Join(string(d), validID+".json")); err != nil {
		t.Fatalf("blob not filed as <key>.json: %v", err)
	}
}

// TestInvalidKeysRejected pins the path-traversal guard: only 64
// lowercase hex characters name a blob, so Put refuses anything else
// without writing and Get misses without reading.
func TestInvalidKeysRejected(t *testing.T) {
	root := t.TempDir()
	d := Dir(filepath.Join(root, "store"))
	if err := d.Put(validID, []byte("ok")); err != nil {
		t.Fatalf("Put rejected a valid key: %v", err)
	}
	// A readable file one level up: a traversing key would reach it.
	if err := os.WriteFile(filepath.Join(root, "escape.json"), []byte("outside"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"", "..", strings.Repeat("g", 64), strings.Repeat("A", 64), strings.Repeat("0", 63),
		strings.Repeat("0", 65), "../escape", "../" + strings.Repeat("0", 61),
	} {
		if err := d.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) succeeded", bad)
		}
		if _, ok := d.Get(bad); ok {
			t.Errorf("Get(%q) hit", bad)
		}
	}
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Errorf("root holds %d entries, want the store dir and escape.json", len(ents))
	}
	ents, err = os.ReadDir(string(d))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("store holds %d files, want only the valid blob", len(ents))
	}
}

// TestLeftoverTempFile: a .tmp-* file, as a kill between write and
// rename leaves behind, is invisible to Get and does not break the next
// Put.
func TestLeftoverTempFile(t *testing.T) {
	d := Dir(t.TempDir())
	torn := filepath.Join(string(d), ".tmp-123456")
	if err := os.WriteFile(torn, []byte(`{"half`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(validID); ok {
		t.Fatal("Get served a leftover temp file")
	}
	if err := d.Put(validID, []byte("whole")); err != nil {
		t.Fatalf("Put after a leftover temp file: %v", err)
	}
	if got, ok := d.Get(validID); !ok || string(got) != "whole" {
		t.Fatalf("Get = %q, %v; want the new blob", got, ok)
	}
}

// TestPutCreatesDir: Put works on a directory that does not exist yet.
func TestPutCreatesDir(t *testing.T) {
	d := Dir(filepath.Join(t.TempDir(), "a", "b"))
	if err := d.Put(validID, []byte("x")); err != nil {
		t.Fatalf("Put into a missing directory: %v", err)
	}
	if got, ok := d.Get(validID); !ok || string(got) != "x" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

// TestUnusableStoresMiss: an unreadable blob is a miss, a store whose
// path is a regular file misses and refuses writes, and the empty Dir
// stores nothing — none of them panic.
func TestUnusableStoresMiss(t *testing.T) {
	d := Dir(t.TempDir())
	if err := os.Mkdir(filepath.Join(string(d), validID+".json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(validID); ok {
		t.Error("Get hit on a blob path that is a directory")
	}

	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Dir(file).Put(validID, []byte("x")); err == nil {
		t.Error("Put into a regular file succeeded")
	}
	if _, ok := Dir(file).Get(validID); ok {
		t.Error("Get hit in a store that is a regular file")
	}

	if err := Dir("").Put(validID, []byte("x")); err != nil {
		t.Errorf("empty Dir Put = %v, want a silent no-op", err)
	}
	if _, err := os.Stat(validID + ".json"); err == nil {
		t.Error("empty Dir wrote into the working directory")
	}
	if _, ok := Dir("").Get(validID); ok {
		t.Error("empty Dir Get hit")
	}
}
