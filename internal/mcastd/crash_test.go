package mcastd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/reliable"
	"repro/internal/tree"
)

// The crash test needs a real second OS process to SIGKILL, so the test
// binary re-execs itself: with MCASTD_CRASH_HELPER set, TestMain runs
// the peer daemon instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("MCASTD_CRASH_HELPER") == "1" {
		crashHelper()
		return
	}
	os.Exit(m.Run())
}

// crashParams crosses the exec boundary as JSON in the environment:
// both processes must derive the identical tree and packet set.
type crashParams struct {
	Session  uint64
	MsgID    uint32
	Chain    []int
	Arity    int
	Bytes    int
	Packet   int
	Local    []int
	JitterUS int64
	Seed     uint64
	Peers    []struct {
		Host int
		Addr string
	}
}

func (p crashParams) faults() link.Faults {
	return link.Faults{Seed: p.Seed, MaxJitter: time.Duration(p.JitterUS) * time.Microsecond}
}

// crashHelper is the victim daemon: bind, report addresses on stdout,
// wait for "go", run the reliable engine until the parent kills us.
func crashHelper() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "crash helper:", err)
		os.Exit(2)
	}
	var p crashParams
	if err := json.Unmarshal([]byte(os.Getenv("MCASTD_CRASH_PARAMS")), &p); err != nil {
		fail(err)
	}
	tr := tree.KBinomial(p.Chain, p.Arity)
	pkts, err := message.Packetize(p.MsgID, 0, testPayload(p.Bytes), p.Packet)
	if err != nil {
		fail(err)
	}
	nw, err := link.NewUDPNetwork(link.UDPConfig{Session: p.Session})
	if err != nil {
		fail(err)
	}
	for _, v := range p.Local {
		if _, err := nw.Listen(v, "127.0.0.1:0"); err != nil {
			fail(err)
		}
	}
	for _, pa := range p.Peers {
		if err := nw.AddPeer(pa.Host, pa.Addr); err != nil {
			fail(err)
		}
	}
	for _, v := range p.Local {
		fmt.Printf("addr %d %s\n", v, nw.Addr(v))
	}
	fmt.Println("ready")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if sc.Text() == "go" {
			break
		}
	}
	rcfg := DefaultReliableConfig()
	rcfg.Faults = p.faults()
	if _, err := RunReliable(Config{
		Tree: tr, Packets: pkts, MsgID: p.MsgID, Local: p.Local, Net: nw,
		Timeout: 30 * time.Second,
	}, rcfg); err != nil {
		fail(err)
	}
	os.Exit(0)
}

// TestDaemonCrash SIGKILLs a real peer daemon mid-transfer and requires
// the survivors to finish anyway: the root's failure detector confirms
// the dead process, fences the epoch, and adopts the orphaned subtrees
// (Fig. 11) onto live hosts, settling a typed DeliveredPartial verdict
// that names exactly the crashed hosts.
//
// The tree is 0->2->{3,4}, 4->5, 0->1 with the victim process owning
// the internal spine {2, 4}; send-side jitter throttles every edge so
// the kill provably lands while the transfer is in flight.
func TestDaemonCrash(t *testing.T) {
	skipWithoutLoopback(t)
	chain := []int{0, 1, 2, 3, 4, 5}
	const arity = 2
	tr := tree.KBinomial(chain, arity)
	data := testPayload(6400)
	const msgID, packet = 11, 100
	pkts, err := message.Packetize(msgID, 0, data, packet)
	if err != nil {
		t.Fatal(err)
	}
	parentLocal, childLocal := []int{0, 1, 3, 5}, []int{2, 4}

	params := crashParams{
		Session: 0xC4A5, MsgID: msgID, Chain: chain, Arity: arity,
		Bytes: len(data), Packet: packet, Local: childLocal,
		JitterUS: 4000, Seed: 23,
	}
	nw, err := link.NewUDPNetwork(link.UDPConfig{Session: params.Session})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	for _, v := range parentLocal {
		if _, err := nw.Listen(v, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		params.Peers = append(params.Peers, struct {
			Host int
			Addr string
		}{v, nw.Addr(v).String()})
	}
	js, err := json.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"MCASTD_CRASH_HELPER=1", "MCASTD_CRASH_PARAMS="+string(js))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	sc := bufio.NewScanner(stdout)
	ready := false
	for sc.Scan() {
		line := sc.Text()
		if line == "ready" {
			ready = true
			break
		}
		var v int
		var addr string
		if _, err := fmt.Sscanf(line, "addr %d %s", &v, &addr); err == nil {
			if err := nw.AddPeer(v, addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !ready {
		t.Fatalf("helper never reported ready: %v", sc.Err())
	}

	rcfg := DefaultReliableConfig()
	rcfg.Faults = params.faults()
	rcfg.Quorum = 1
	type outcome struct {
		res *live.ReliableResult
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := RunReliable(Config{
			Tree: tr, Packets: pkts, MsgID: msgID, Local: parentLocal, Net: nw,
			Timeout: 20 * time.Second,
		}, rcfg)
		resCh <- outcome{res, err}
	}()
	if _, err := io.WriteString(stdin, "go\n"); err != nil {
		t.Fatal(err)
	}

	// ~64 packets x ~2ms mean jitter per edge means host 2 cannot have
	// completed (let alone forwarded everything) 60ms in: the SIGKILL
	// lands mid-transfer by a wide margin.
	time.Sleep(60 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	cmd.Wait()

	o := <-resCh
	if o.err != nil {
		t.Fatalf("root process errored instead of settling a partial verdict: %v", o.err)
	}
	res := o.res
	if res.Status != reliable.DeliveredPartial {
		t.Fatalf("status %v (orphaned %v, crashed %v), want DeliveredPartial", res.Status, res.Orphaned, res.Crashed)
	}
	if want := []int{2, 4}; !equalInts(res.Orphaned, want) {
		t.Fatalf("orphaned %v, want %v", res.Orphaned, want)
	}
	if want := []int{2, 4}; !equalInts(res.Crashed, want) {
		t.Fatalf("crashed %v, want %v", res.Crashed, want)
	}
	if res.Adoptions == 0 {
		t.Fatal("survivors completed without any adoption being recorded")
	}
	if res.Epoch <= 1 {
		t.Fatalf("epoch %d never advanced past the initial membership view", res.Epoch)
	}
	for _, v := range []int{1, 3, 5} {
		rep := res.Hosts[v]
		if rep == nil || !bytes.Equal(rep.Data, data) {
			t.Fatalf("surviving host %d not byte-exact after adoption", v)
		}
	}
	var crashedNames []string
	for _, v := range res.Crashed {
		crashedNames = append(crashedNames, fmt.Sprint(v))
	}
	t.Logf("verdict %v: crashed {%s}, %d adoptions, epoch %d, %d retransmits",
		res.Status, strings.Join(crashedNames, ","), res.Adoptions, res.Epoch, res.Retransmits)
}

func equalInts(got, want []int) bool {
	g := append([]int(nil), got...)
	sort.Ints(g)
	if len(g) != len(want) {
		return false
	}
	for i := range g {
		if g[i] != want[i] {
			return false
		}
	}
	return true
}
