package wal

import (
	"bytes"
	"testing"
)

// FuzzWALDecode drives the frame scanner and record parser with
// arbitrary bytes: neither may panic, and any byte stream a crash could
// leave behind must decode as a valid prefix followed by a rejected
// tail — never as garbage records.
func FuzzWALDecode(f *testing.F) {
	// seed: well-formed streams and near-miss mutations of them
	var good []byte
	good = appendFrame(good, &Record{Kind: RecPrepare, QID: "q1", PUL: []byte("<xrpc:pending-updates/>")})
	good = appendFrame(good, &Record{Kind: RecCommit, Version: 7, QID: "q1", PUL: []byte("<p/>")})
	good = appendFrame(good, &Record{Kind: RecAbort, QID: "q2"})
	f.Add(good)
	f.Add(good[:len(good)-3])                         // torn tail
	f.Add([]byte{})                                   // empty body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length header
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x40 // CRC mismatch mid-stream
	f.Add(flipped)
	f.Add(EncodeRecord(&Record{Kind: RecCommit, Version: 3, QID: "q", PUL: []byte("<p/>")}))

	f.Fuzz(func(t *testing.T, body []byte) {
		var recs []*Record
		valid, _ := scanFrames(body, func(rec *Record) error {
			recs = append(recs, rec)
			return nil
		})
		if valid < 0 || valid > len(body) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(body))
		}
		// every accepted record must survive a re-encode/decode round
		// trip: the scanner only yields well-formed records
		for _, rec := range recs {
			back, err := DecodeRecord(EncodeRecord(rec))
			if err != nil {
				t.Fatalf("accepted record does not round-trip: %v", err)
			}
			if back.Kind != rec.Kind || back.Version != rec.Version ||
				back.QID != rec.QID || !bytes.Equal(back.PUL, rec.PUL) {
				t.Fatal("accepted record mutated by round trip")
			}
		}
		// DecodeRecord on the raw body must not panic either
		DecodeRecord(body)
	})
}
