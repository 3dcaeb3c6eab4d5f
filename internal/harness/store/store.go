// Package store is zivsim's one persistence mechanism: a directory of
// content-addressed blobs, one file per key (<dir>/<key>.json), where a
// key is a 64-character lowercase hex SHA-256 identity. The harness
// result cache (Options.CacheDir, zivsim -store) and zivsimd's
// completed-job records (<state-dir>/jobs) both persist through it.
//
// Writes are atomic: a blob goes to a .tmp-* file in the directory and
// is renamed over its key, so concurrent writers and a process killed
// mid-write never leave a torn blob under a key (at worst a stray
// .tmp-* file, which no key names). Reads never fail: a missing or
// unreadable file is a miss. A store is therefore an accelerator,
// never a correctness dependency — callers validate what they read
// (their envelopes carry a version) and recompute on any miss.
package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// Dir is a blob store rooted at a directory path. The empty Dir is no
// store: every Get misses and Put stores nothing.
type Dir string

// Get returns the blob stored under key. An invalid key, a missing
// file and an unreadable file are all misses. Get never scans the
// directory.
func (d Dir) Get(key string) ([]byte, bool) {
	if d == "" || !validKey(key) {
		return nil, false
	}
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// Put stores data under key, creating the directory if needed. The
// blob is written to a temp file and renamed over the key, so readers
// see either the previous blob or the new one, never a partial write.
// An invalid key is an error; nothing is written for it.
func (d Dir) Put(key string, data []byte) error {
	if d == "" {
		return nil
	}
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if err := os.MkdirAll(string(d), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(string(d), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), d.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// path is the file that holds key's blob.
func (d Dir) path(key string) string {
	return filepath.Join(string(d), key+".json")
}

// validKey guards path construction: keys are exactly 64 lowercase hex
// characters, so a key taken from a URL can never escape the directory.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
