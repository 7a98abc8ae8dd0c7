package netsim

import (
	"bytes"
	"testing"
	"testing/iotest"
)

// TestReadBody reads bodies shorter than, as long as and longer than
// their announced length, and of no announced length, across the
// probe's and a chunk's size, in one read and byte by byte: every one
// comes back whole.
func TestReadBody(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, bodyChunk, bodyChunk + 700} {
		body := bytes.Repeat([]byte("0123456789"), n/10+1)[:n]
		for _, announced := range []int64{-1, 0, int64(n / 2), int64(n), int64(n + 3)} {
			for _, oneByte := range []bool{false, true} {
				r := bytes.NewReader(body)
				rd := iotest.DataErrReader(r)
				if oneByte {
					rd = iotest.OneByteReader(r)
				}
				got, err := ReadBody(rd, announced)
				if err != nil || !bytes.Equal(got, body) {
					t.Fatalf("n=%d announced=%d oneByte=%v: read %d bytes (err %v)", n, announced, oneByte, len(got), err)
				}
			}
		}
	}
}
