package zivsim

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// updateCLIDocs regenerates the help blocks in docs/cli.md instead of
// comparing against them:
//
//	go test -run TestCLIDocsInSync -update-cli-docs .
var updateCLIDocs = flag.Bool("update-cli-docs", false, "rewrite the -help blocks in docs/cli.md")

const cliDocsPath = "docs/cli.md"

// cliCommands are the commands documented in docs/cli.md, in file order.
var cliCommands = []string{"zivsim", "zivsimd", "zivbench", "zivreport", "zivlint", "zivtrace"}

// usageLine matches flag's default header, which embeds the path of the
// built binary ("Usage of /tmp/zivsim-cmd-…/zivsim:").
var usageLine = regexp.MustCompile(`(?m)^Usage of \S*?([a-z]+):$`)

// helpOutput runs `<name> -help` on the binary that commands built and
// returns its combined output with the binary path normalized away. -help
// may exit nonzero (the flag package's default is status 2); only
// failures to run the command at all are fatal.
func helpOutput(t *testing.T, name string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(commands(t), name), "-help")
	out, err := cmd.CombinedOutput()
	if err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%s -help: %v\n%s", name, err, out)
		}
	}
	text := usageLine.ReplaceAllString(string(out), "Usage of $1:")
	if !strings.HasSuffix(text, "\n") {
		text += "\n"
	}
	return text
}

// spliceHelp replaces the fenced block between the help markers for one
// command, returning an error if the markers are missing or malformed.
func spliceHelp(doc, name, help string) (string, error) {
	open := fmt.Sprintf("<!-- help:%s -->", name)
	clo := fmt.Sprintf("<!-- /help:%s -->", name)
	i := strings.Index(doc, open)
	if i < 0 {
		return "", fmt.Errorf("marker %q not found", open)
	}
	j := strings.Index(doc[i:], clo)
	if j < 0 {
		return "", fmt.Errorf("marker %q not found after %q", clo, open)
	}
	j += i
	block := open + "\n```text\n" + help + "```\n"
	return doc[:i] + block + doc[j:], nil
}

// extractHelp returns the current contents of a command's fenced help
// block in the doc.
func extractHelp(doc, name string) (string, error) {
	open := fmt.Sprintf("<!-- help:%s -->", name)
	clo := fmt.Sprintf("<!-- /help:%s -->", name)
	i := strings.Index(doc, open)
	if i < 0 {
		return "", fmt.Errorf("marker %q not found", open)
	}
	rest := doc[i+len(open):]
	j := strings.Index(rest, clo)
	if j < 0 {
		return "", fmt.Errorf("marker %q not found after %q", clo, open)
	}
	block := rest[:j]
	k := strings.Index(block, "```text\n")
	if k < 0 {
		return "", fmt.Errorf("no ```text fence inside %q block", name)
	}
	block = block[k+len("```text\n"):]
	end := strings.LastIndex(block, "```")
	if end < 0 {
		return "", fmt.Errorf("unterminated fence inside %q block", name)
	}
	return block[:end], nil
}

// TestCLIDocsInSync keeps docs/cli.md's embedded -help output identical
// to what the commands actually print, so the CLI reference cannot drift
// from the flags. Run with -update-cli-docs to regenerate after a flag
// change.
func TestCLIDocsInSync(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every command; skipped in -short mode")
	}
	raw, err := os.ReadFile(cliDocsPath)
	if err != nil {
		t.Fatalf("read %s: %v", cliDocsPath, err)
	}
	doc := string(raw)

	if *updateCLIDocs {
		for _, name := range cliCommands {
			doc, err = spliceHelp(doc, name, helpOutput(t, name))
			if err != nil {
				t.Fatalf("%s: %v", cliDocsPath, err)
			}
		}
		if err := os.WriteFile(cliDocsPath, []byte(doc), 0o644); err != nil {
			t.Fatalf("write %s: %v", cliDocsPath, err)
		}
		return
	}

	for _, name := range cliCommands {
		want := helpOutput(t, name)
		got, err := extractHelp(doc, name)
		if err != nil {
			t.Errorf("%s: %v", cliDocsPath, err)
			continue
		}
		if got != want {
			t.Errorf("%s: help block for %s is stale; regenerate with\n\tgo test -run TestCLIDocsInSync -update-cli-docs .\ngot:\n%s\nwant:\n%s",
				cliDocsPath, name, got, want)
		}
	}
}
