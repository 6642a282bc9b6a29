package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// docFlagDefaults reads the "### Flags" table of docs/OPERATIONS.md
// into name -> documented default, in flag.DefValue's spelling: an
// em dash is the empty string, "off" is false, anything else is the
// cell's first backquoted token.
func docFlagDefaults(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := strings.Cut(string(doc), "\n### Flags\n")
	if !found {
		t.Fatal("docs/OPERATIONS.md has no '### Flags' section")
	}
	if i := strings.Index(table, "\n#"); i >= 0 {
		table = table[:i]
	}
	defaults := map[string]string{}
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`-") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`-")
		if _, dup := defaults[name]; dup {
			t.Errorf("flag table lists -%s twice", name)
		}
		def := strings.TrimSpace(cells[2])
		switch {
		case def == "—":
			def = ""
		case def == "off":
			def = "false"
		default:
			quoted := strings.SplitN(def, "`", 3)
			if len(quoted) < 3 {
				t.Errorf("flag table default for -%s is %q: want —, off or a backquoted value", name, def)
				continue
			}
			def = quoted[1]
		}
		defaults[name] = def
	}
	return defaults
}

// TestFlagsMatchOperationsDoc keeps the operator's flag table honest:
// every registered flag has a row with its real default, and every row
// names a registered flag. Durations compare by value, so the table may
// say 4m where flag prints 4m0s. The flags this daemon once had for
// its removed second modes must stay unknown to the flag set.
func TestFlagsMatchOperationsDoc(t *testing.T) {
	var opts options
	fs := flag.NewFlagSet("qoeproxy", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerFlags(fs, &opts)

	documented := docFlagDefaults(t)
	fs.VisitAll(func(f *flag.Flag) {
		want, ok := documented[f.Name]
		if !ok {
			t.Errorf("-%s is registered but missing from the docs/OPERATIONS.md flag table", f.Name)
			return
		}
		delete(documented, f.Name)
		if want == f.DefValue {
			return
		}
		docDur, err1 := time.ParseDuration(want)
		realDur, err2 := time.ParseDuration(f.DefValue)
		if err1 != nil || err2 != nil || docDur != realDur {
			t.Errorf("-%s: documented default %q, registered default %q", f.Name, want, f.DefValue)
		}
	})
	for name := range documented {
		t.Errorf("-%s is in the docs/OPERATIONS.md flag table but not registered", name)
	}

	for _, removed := range []string{"replay", "replay-speed", "replay-workers", "ingest-batch", "classify-batch", "parse-workers", "classify-workers", "ingest-speed"} {
		err := fs.Parse([]string{"-" + removed, "0"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("-%s: Parse = %v, want \"flag provided but not defined\"", removed, err)
		}
	}
}
