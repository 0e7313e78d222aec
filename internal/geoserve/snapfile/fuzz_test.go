package snapfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"geonet/internal/geoserve"
)

var update = flag.Bool("update", false, "regenerate the fuzz seed corpus")

// reseal recomputes the trailing whole-file hash after a test mutates
// the bytes above it.
func reseal(b []byte) {
	sum := sha256.Sum256(b[:len(b)-32])
	copy(b[len(b)-32:], sum[:])
}

// FuzzSnapfileLoad feeds Decode arbitrary mutations of valid snapshot
// files (seed corpus under testdata/fuzz/). Two properties: Decode
// never panics whatever the bytes, and a load that succeeds always
// returns a snapshot whose recomputed Digest() equals the file's
// trailer digest — corruption can fail a load but can never smuggle
// content in under the wrong digest.
func FuzzSnapfileLoad(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*.snap"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no seed corpus under testdata/fuzz (regenerate with TestWriteFuzzCorpus -update)")
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, info, err := Decode(data)
		if err != nil {
			if snap != nil {
				t.Fatal("Decode returned a snapshot alongside its error")
			}
			return
		}
		trailer := hex.EncodeToString(data[len(data)-64 : len(data)-32])
		if snap.Digest() != trailer {
			t.Fatalf("loaded digest %s != trailer %s", snap.Digest(), trailer)
		}
		if info.Digest != snap.Digest() {
			t.Fatalf("FileInfo digest %s != snapshot %s", info.Digest, snap.Digest())
		}
	})
}

// FuzzSnapdeltaApply feeds Apply arbitrary mutations of valid deltas —
// Diff from a test world to two churned epochs of it, and to itself —
// against that world as base. Each input is applied as given and again
// resealed (whole-file hash recomputed), so mutations also get past the
// hash check to the base, merge and digest checks behind it. Apply
// never panics, fails only with this package's typed errors, and any
// success yields a snapshot whose digest is the trailer's to-digest.
func FuzzSnapdeltaApply(f *testing.F) {
	keys := worldKeys(12)
	base := buildWorld(f, 3, keys, nil)
	targets := []*geoserve.Snapshot{base}
	for step := int64(1); step <= 2; step++ {
		churned, salts := churnedKeys(keys, step)
		targets = append(targets, buildWorld(f, 3, churned, salts))
	}
	for i, target := range targets {
		delta, err := Diff(base, target, 1, uint64(2+i))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(delta)
	}
	f.Add([]byte(deltaMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkApply(t, base, data)
		if len(data) >= trailerBytes {
			resealed := bytes.Clone(data)
			reseal(resealed)
			checkApply(t, base, resealed)
		}
	})
}

func checkApply(t *testing.T, base *geoserve.Snapshot, data []byte) {
	snap, info, err := Apply(base, data)
	if err != nil {
		if snap != nil {
			t.Fatal("Apply returned a snapshot alongside its error")
		}
		for _, typed := range []error{ErrMagic, ErrVersion, ErrTruncated, ErrFormat, ErrCorrupt, ErrDeltaBase} {
			if errors.Is(err, typed) {
				return
			}
		}
		t.Fatalf("untyped Apply error: %v", err)
	}
	trailer := hex.EncodeToString(data[len(data)-trailerBytes : len(data)-32])
	if snap.Digest() != trailer || info.ToDigest != trailer {
		t.Fatalf("applied digest %s, info %s, trailer %s", snap.Digest(), info.ToDigest, trailer)
	}
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus when run
// with -update (the snapfile package reuses the geoserve golden flag
// convention). The corpus holds small but structurally complete files:
// multiple mappers, footprint gaps, an empty world.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{}
	blob, err := Encode(makeSnapshot(t, 1, 6, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	cases["valid_small.snap"] = blob
	if blob, err = Encode(makeSnapshot(t, 2, 1, 0), 42); err != nil {
		t.Fatal(err)
	}
	cases["valid_tiny.snap"] = blob
	for name, data := range cases {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", name, len(data))
	}
}
