package sim

// pin_test.go pins the sim-level determinism tests to committed bytes, in
// the style of the root registry fixtures: each fixture under testdata/pins
// records the sha256 and length of one run's MMTR transcript stream plus
// the sha256 of the %#v of its Results and Metrics. Every configuration a
// test runs must reproduce its fixture, so the fixture — not a second
// engine — is the oracle. A missing fixture is written (and the test fails,
// asking for it to be committed); an existing one is never rewritten.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// pinCell runs one configuration with a transcript installed and renders
// the fixture text it must match.
func pinCell(t *testing.T, run func(opts ...Option) (*Result, error), opts ...Option) string {
	t.Helper()
	var buf bytes.Buffer
	tw := NewTranscriptWriter(&buf, false)
	res, err := run(append([]Option{WithTranscript(tw)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	outcome := fmt.Sprintf("%#v %#v", res.Results, res.Metrics)
	return fmt.Sprintf("stream sha256:%x len:%d\noutcome sha256:%x\n",
		sha256.Sum256(buf.Bytes()), buf.Len(), sha256.Sum256([]byte(outcome)))
}

// checkPin compares got with the named fixture under testdata/pins,
// writing the fixture when it is missing.
func checkPin(t *testing.T, name, config, got string) {
	t.Helper()
	path := filepath.Join("testdata", "pins", name+".golden")
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("wrote missing fixture %s; commit it", path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s deviates from %s:\n got:  %s want: %s", config, path, got, want)
	}
}
