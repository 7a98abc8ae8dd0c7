package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// TestXrpcdProxyStreamsCluster drives `xrpcd -proxy` end to end over
// live processes: two shard daemons plus a proxy daemon pointed at
// them. A plain XRPC client posts a bulk request to the proxy exactly
// as it would to a single peer; the streamed shard-order merge it
// receives must be byte-identical to a single unsharded peer's
// response, both through the buffered client path and through the
// streaming pull-decoder — from a plain proxy to a plain client, and
// from a `-gzip` proxy to a gzip client, which it answers gzipped.
func TestXrpcdProxyStreamsCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "xrpcd")
	build := exec.Command("go", "build", "-o", bin, "xrpc/cmd/xrpcd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building xrpcd: %v\n%s", err, out)
	}

	const persons = 10
	docs := filepath.Join(tmp, "docs")
	mods := filepath.Join(tmp, "modules")
	for _, d := range []string{docs, mods} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	xml := xmark.GeneratePersons(xmark.Config{Persons: persons, Seed: 11})
	if err := os.WriteFile(filepath.Join(docs, "persons.xml"), []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mods, "p.xq"), []byte(personsModule), 0o644); err != nil {
		t.Fatal(err)
	}

	// start launches one daemon, stopped when t ends, and returns its
	// actual listen address, parsed from the startup log line
	start := func(t *testing.T, name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		addrCh := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				line := sc.Text()
				if i := strings.Index(line, "listening on "); i >= 0 {
					rest := line[i+len("listening on "):]
					if j := strings.IndexByte(rest, ' '); j > 0 {
						rest = rest[:j]
					}
					addrCh <- rest
					return
				}
			}
			addrCh <- ""
		}()
		select {
		case addr := <-addrCh:
			if addr == "" {
				t.Fatalf("%s exited before listening", name)
			}
			return "http://" + addr
		case <-time.After(20 * time.Second):
			t.Fatalf("%s did not report its address", name)
		}
		return ""
	}

	shard0 := start(t, "shard 0", "-shard", "0", "-of", "2", "-docs", docs, "-modules", mods)
	shard1 := start(t, "shard 1", "-shard", "1", "-of", "2", "-docs", docs, "-modules", mods)
	br := getPersonRequest("person2", "person7", "nosuch")
	want := singlePersonsBaseline(t, persons, br, nil)

	for _, gz := range []bool{false, true} {
		t.Run(fmt.Sprintf("gzip %v", gz), func(t *testing.T) {
			args := []string{"-proxy", shard0 + "," + shard1}
			if gz {
				args = append(args, "-gzip")
			}
			proxy := start(t, "proxy", args...)
			tr, encoding := encodingRecorder()
			tr.Gzip = gz
			cl := client.New(tr)

			// buffered client path: the proxy answers like one unsharded peer
			res, err := cl.CallBulk(proxy, br)
			if err != nil {
				t.Fatalf("bulk through proxy: %v", err)
			}
			if !bytes.Equal(encodeResults(br, res), want) {
				t.Fatal("proxy response differs from the unsharded single-peer response")
			}
			if gz != (*encoding == "gzip") {
				t.Fatalf("proxy answered with Content-Encoding %q", *encoding)
			}

			// streaming client path: pull-decode the proxy's chunked merge
			enc := cl.EncodeBulk(br)
			defer enc.Release()
			sr, err := cl.SendStreamed(proxy, enc.Bytes(), len(br.Calls))
			if err != nil {
				t.Fatalf("streamed bulk through proxy: %v", err)
			}
			defer sr.Close()
			var streamed []xdm.Sequence
			for {
				ok, err := sr.NextSequence()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				var seq xdm.Sequence
				for {
					it, err := sr.NextItem()
					if err != nil {
						t.Fatal(err)
					}
					if it == nil {
						break
					}
					seq = append(seq, it)
				}
				streamed = append(streamed, seq)
			}
			if _, err := sr.Finish(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeResults(br, streamed), want) {
				t.Fatal("streamed proxy response differs from the unsharded single-peer response")
			}
		})
	}
}
