package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/server"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// startXrpcd launches the built daemon and returns its base URL, parsed
// from the "listening on <addr> " startup line.
func startXrpcd(t *testing.T, bin string, args ...string) (string, *exec.Cmd) {
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
			t.Fatal("xrpcd exited before listening")
		}
		return "http://" + addr, cmd
	case <-time.After(20 * time.Second):
		t.Fatal("xrpcd did not report its address")
	}
	return "", nil
}

// versionOf probes a live peer's commit-fence version via shardInfo.
func versionOf(t *testing.T, cl *client.Client, url string) int64 {
	t.Helper()
	res, err := cl.CallBulk(url, &client.BulkRequest{
		ModuleURI: client.SystemModule,
		Func:      "shardInfo",
		Arity:     0,
		Calls:     [][]xdm.Sequence{{}},
	})
	if err != nil {
		t.Fatalf("shardInfo at %s: %v", url, err)
	}
	for _, it := range res[0] {
		if v, ok := server.ParseVersionItem(it.StringValue()); ok {
			return v
		}
	}
	t.Fatalf("no version fence in shardInfo reply from %s", url)
	return 0
}

// TestXrpcdCrashRecovery is the durability acceptance gate: a live
// xrpcd is SIGKILL'd in the middle of an update storm and restarted
// with the same -wal-dir. Every acknowledged commit must survive — the
// recovered peer's version covers all acked updates, the stormed
// person's city is the last acked write (or a later unacked one the
// log happened to make durable — never an earlier one), and a document
// committed before the storm reads back byte-identical. It runs without
// and with the response cache, the configuration the end-to-end
// benchmark's point_lookup and update_mix shards use.
func TestXrpcdCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := filepath.Join(t.TempDir(), "xrpcd")
	build := exec.Command("go", "build", "-o", bin, "xrpc/cmd/xrpcd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building xrpcd: %v\n%s", err, out)
	}
	for _, row := range []struct {
		name  string
		extra []string
	}{
		{"wal", nil},
		{"wal+respcache", []string{"-respcache", "8"}},
	} {
		t.Run(row.name, func(t *testing.T) { crashRecovery(t, bin, row.extra) })
	}
}

func crashRecovery(t *testing.T, bin string, extra []string) {
	tmp := t.TempDir()
	docs := filepath.Join(tmp, "docs")
	mods := filepath.Join(tmp, "modules")
	// the WAL lives outside t.TempDir-per-start so both incarnations
	// share it; tests honoring XRPC_CRASHSMOKE_DIR (tmpfs in CI) keep
	// fsync cheap
	walRoot := os.Getenv("XRPC_CRASHSMOKE_DIR")
	if walRoot == "" {
		walRoot = tmp
	}
	walDir, err := os.MkdirTemp(walRoot, "xrpcd-wal-")
	if err != nil {
		// the tmpfs path may not exist on this platform; correctness
		// does not depend on it
		if walDir, err = os.MkdirTemp(tmp, "xrpcd-wal-"); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { os.RemoveAll(walDir) })
	for _, d := range []string{docs, mods} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	xml := xmark.GeneratePersons(xmark.Config{Persons: 20, Seed: 11})
	if err := os.WriteFile(filepath.Join(docs, "persons.xml"), []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mods, "p.xq"), []byte(personsModule), 0o644); err != nil {
		t.Fatal(err)
	}

	args := append([]string{"-docs", docs, "-modules", mods, "-wal-dir", walDir}, extra...)
	url, proc := startXrpcd(t, bin, args...)
	cl := client.New(client.NewHTTPTransportTimeout(10 * time.Second))

	// a fully acknowledged commit before the storm: its read bytes are
	// the byte-identity baseline across the crash
	if _, err := cl.CallBulk(url, setCityRequest("Delft", "person2")); err != nil {
		t.Fatal(err)
	}
	probe := getPersonRequest("person2")
	before, err := cl.CallBulk(url, probe)
	if err != nil {
		t.Fatal(err)
	}
	v0 := versionOf(t, cl, url)

	// update storm on person1, killed mid-flight with SIGKILL
	var mu sync.Mutex
	acked := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			if _, err := cl.CallBulk(url, setCityRequest(fmt.Sprintf("City%d", i), "person1")); err != nil {
				return
			}
			mu.Lock()
			acked = i + 1
			mu.Unlock()
		}
	}()
	for {
		mu.Lock()
		a := acked
		mu.Unlock()
		if a >= 15 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	proc.Process.Kill() // SIGKILL: no flush, no shutdown path
	proc.Wait()
	<-done
	mu.Lock()
	ackedFinal := acked
	mu.Unlock()

	// restart with the same -wal-dir: -docs must be ignored in favor of
	// the recovered state. Start to ready covers the recovery's parses:
	// the snapshot documents and the replayed PULs.
	restart := time.Now()
	url2, _ := startXrpcd(t, bin, args...)
	t.Logf("restarted xrpcd ready in %v", time.Since(restart).Round(time.Millisecond))

	if v2 := versionOf(t, cl, url2); v2 < v0+int64(ackedFinal) {
		t.Fatalf("recovered version %d < %d: acked commits lost (v0 %d + %d acked)",
			v2, v0+int64(ackedFinal), v0, ackedFinal)
	}

	res, err := cl.CallBulk(url2, getPersonRequest("person1"))
	if err != nil {
		t.Fatal(err)
	}
	city := regexp.MustCompile(`<city>City(\d+)</city>`).FindStringSubmatch(xdm.SerializeSequence(res[0]))
	if city == nil {
		t.Fatalf("stormed person has no City<n> city after recovery: %s", xdm.SerializeSequence(res[0]))
	}
	got, _ := strconv.Atoi(city[1])
	// >= is correct: a commit can be durable but its ack lost to the kill
	if got < ackedFinal-1 {
		t.Fatalf("recovered city City%d predates the last acked update City%d", got, ackedFinal-1)
	}

	after, err := cl.CallBulk(url2, probe)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(probe, before), encodeResults(probe, after)) {
		t.Fatal("pre-crash committed read is not byte-identical after recovery")
	}
}
