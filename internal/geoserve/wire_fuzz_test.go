package geoserve

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The -update flag belongs to golden_test.go (package geoserve_test,
// same test binary), so the wire corpus generator takes its own name.
var updateWireCorpus = flag.Bool("update-wire-corpus", false, "regenerate the wire fuzz seed corpus")

// FuzzWireDecode feeds the three wire decoders — batch-request parse,
// one-shot batch-response decode, and the streaming frame reader —
// arbitrary mutations of valid wire bytes (seed corpus under
// testdata/fuzz/*.wire, mirroring FuzzSnapfileLoad). The properties:
// no input panics, and every rejection is a typed wire error (or an
// io error from the stream reader running out of bytes), never an
// untyped failure.
func FuzzWireDecode(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*.wire"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no wire seed corpus under testdata/fuzz (regenerate with TestWriteWireFuzzCorpus -update-wire-corpus)")
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(wireMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := parseWireBatchRequest(data, nil); err != nil && !isTypedWireErr(err) {
			t.Fatalf("parseWireBatchRequest: untyped error %v", err)
		}
		if _, _, _, err := DecodeWireBatch(data); err != nil && !isTypedWireErr(err) {
			t.Fatalf("DecodeWireBatch: untyped error %v", err)
		}
		rd, err := NewWireReader(bytes.NewReader(data))
		if err != nil {
			if !isTypedWireErr(err) && !isIOErr(err) {
				t.Fatalf("NewWireReader: untyped error %v", err)
			}
			return
		}
		for {
			if _, _, err := rd.Next(nil); err != nil {
				if err != io.EOF && !isTypedWireErr(err) && !isIOErr(err) {
					t.Fatalf("WireReader.Next: untyped error %v", err)
				}
				return
			}
		}
	})
}

func isTypedWireErr(err error) bool {
	return errors.Is(err, ErrWireMagic) || errors.Is(err, ErrWireVersion) ||
		errors.Is(err, ErrWireFormat) || errors.Is(err, ErrWireOverloaded) ||
		errors.Is(err, ErrWireStream)
}

func isIOErr(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// TestWriteWireFuzzCorpus regenerates the checked-in wire seed corpus
// when run with -update-wire-corpus. The corpus holds one structurally
// complete specimen of each frame kind: a batch request, a served
// batch response, a stream request header with chunks and terminator,
// and a stream response with answer frames and an error frame.
func TestWriteWireFuzzCorpus(t *testing.T) {
	if !*updateWireCorpus {
		t.Skip("run with -update-wire-corpus to regenerate testdata/fuzz/*.wire")
	}
	dir := filepath.Join("testdata", "fuzz")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	snap := syntheticSnapshot(10<<24, 9, 2, 0)
	c := oneShard(t, snap)
	probes := probeAddrs(snap)

	cases := map[string][]byte{
		"batch_req.wire":  AppendWireBatchRequest(nil, WireMapperDefault, probes),
		"batch_resp.wire": clusterWireResponse(t, c, 1, probes),
	}
	streamReq := AppendWireStreamHeader(nil, 0)
	streamReq = AppendWireChunk(streamReq, probes[:3])
	streamReq = AppendWireChunk(streamReq, probes[3:])
	cases["stream_req.wire"] = AppendWireStreamEnd(streamReq)

	resp := clusterWireResponse(t, c, 0, probes[:3])
	streamResp := bytes.Clone(resp[:wireHeaderSize])
	streamResp[5] = wireKindStreamResp
	streamResp = append(streamResp, resp[wireHeaderSize:]...)
	streamResp = append(streamResp, resp[wireHeaderSize:]...)
	var errFrame bytes.Buffer
	writeWireErrFrame(&errFrame, wireErrCodeOverloaded, 0)
	cases["stream_resp.wire"] = append(streamResp, errFrame.Bytes()...)

	for name, data := range cases {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", name, len(data))
	}
}
