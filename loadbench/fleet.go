package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one fleet process, started in its own process group so the
// whole group can be killed on exit or signal.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped

	spawned, readyAt time.Time
}

func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Pdeathsig: the fleet dies with the benchmark even when the
	// benchmark is killed before it can clean up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{}), spawned: time.Now()}
	go func() {
		_ = cmd.Wait() // the exit status of a killed fleet process is expected
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill SIGKILLs the process group and waits until the leader is reaped.
func (p *proc) kill() {
	_ = syscall.Kill(-p.pid(), syscall.SIGKILL) // ESRCH: already gone
	<-p.done
}

// fleet is the set of processes one workload runs against.
type fleet struct {
	procs []*proc // every process, in start order
	nodes []*proc // rrc-server processes; nodes[0] is the primary
	entry string  // base URL the load goes to (router or the server)
	dirs  []string

	catchupS float64 // routed: standby spawn until it is caught up with lag 0
}

func (f *fleet) routed() bool { return len(f.nodes) > 1 }

func portOf(url string) int {
	i := strings.LastIndexByte(url, ':')
	p, _ := strconv.Atoi(url[i+1:]) // URLs are built by startFleet
	return p
}

// live tracks every fleet so a signal handler can kill them all.
var live struct {
	sync.Mutex
	fleets map[*fleet]bool
}

func (f *fleet) kill() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].kill()
	}
	for _, d := range f.dirs {
		_ = os.RemoveAll(d) // best effort: the run dir is removed as a whole later
	}
	live.Lock()
	delete(live.fleets, f)
	live.Unlock()
}

func killAllFleets() {
	live.Lock()
	fs := make([]*fleet, 0, len(live.fleets))
	for f := range live.fleets {
		fs = append(fs, f)
	}
	live.Unlock()
	for _, f := range fs {
		f.kill()
	}
}

// freePorts reserves n distinct loopback ports chosen by the kernel.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// fleetSpec says how to start a workload's fleet from the fixture.
type fleetSpec struct {
	fsync  string // rrc-server -fsync policy
	routed bool   // primary + -follow standby behind rrc-router
}

// startFleet copies the fixture's events dir for every node, spawns the
// fleet and waits until it is ready. It returns the fleet and the
// set-up time: spawn of the first process until every readiness
// condition holds.
func startFleet(spec fleetSpec, fx *fixture, binDir, runDir string, gen int) (*fleet, float64, error) {
	f := &fleet{}
	nNodes := 1
	if spec.routed {
		nNodes = 2
	}
	for i := 0; i < nNodes; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("events-%d-%d", gen, i))
		if err := copyTree(fx.events, dir); err != nil {
			return nil, 0, err
		}
		f.dirs = append(f.dirs, dir)
	}
	ports, err := freePorts(nNodes + 1)
	if err != nil {
		return nil, 0, err
	}
	live.Lock()
	if live.fleets == nil {
		live.fleets = map[*fleet]bool{}
	}
	live.fleets[f] = true
	live.Unlock()

	server := filepath.Join(binDir, "rrc-server")
	start := time.Now()
	for i := 0; i < nNodes; i++ {
		url := fmt.Sprintf("http://127.0.0.1:%d", ports[i])
		args := []string{"-model", fx.model, "-addr", strings.TrimPrefix(url, "http://"),
			"-events-dir", f.dirs[i], "-shards", strconv.Itoa(fixtureShards), "-fsync", spec.fsync}
		if i > 0 {
			args = append(args, "-follow", f.nodes[0].url)
		}
		name := fmt.Sprintf("rrc-server-%d", i)
		p, err := startProc(name, server, args, filepath.Join(runDir, fmt.Sprintf("%s-%d.log", name, gen)))
		if err != nil {
			f.kill()
			return nil, 0, err
		}
		p.url = url
		f.procs = append(f.procs, p)
		f.nodes = append(f.nodes, p)
	}
	f.entry = f.nodes[0].url
	if spec.routed {
		urls := []string{f.nodes[0].url, f.nodes[1].url}
		url := fmt.Sprintf("http://127.0.0.1:%d", ports[nNodes])
		p, err := startProc("rrc-router", filepath.Join(binDir, "rrc-router"),
			[]string{"-addr", strings.TrimPrefix(url, "http://"), "-nodes", strings.Join(urls, ",")},
			filepath.Join(runDir, fmt.Sprintf("rrc-router-%d.log", gen)))
		if err != nil {
			f.kill()
			return nil, 0, err
		}
		p.url = url
		f.procs = append(f.procs, p)
		f.entry = url
	}
	if err := f.waitReady(60 * time.Second); err != nil {
		f.kill()
		return nil, 0, err
	}
	setupS := time.Since(start).Seconds()
	if f.routed() {
		f.catchupS = f.nodes[1].readyAt.Sub(f.nodes[1].spawned).Seconds()
	}
	return f, setupS, nil
}

// probeClient polls readiness over kept-alive connections, so polling
// leaves no TIME_WAIT sockets behind.
var probeClient = &http.Client{Timeout: 2 * time.Second}

// getJSON GETs url and decodes a JSON body into v (v may be nil).
func getJSON(url string, v any) (int, error) {
	resp, err := probeClient.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return resp.StatusCode, fmt.Errorf("GET %s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

type nodeReady struct {
	Status      string `json:"status"`
	WriteTarget string `json:"write_target"`
	Replication *struct {
		Role       string `json:"role"`
		LagRecords uint64 `json:"lag_records"`
		CaughtUp   bool   `json:"caught_up"`
	} `json:"replication"`
}

// ready reports whether one process meets its readiness condition:
// /readyz 200; a follower also caught up with lag 0; the router also
// naming the primary as its write target.
func (f *fleet) ready(p *proc) bool {
	var r nodeReady
	code, err := getJSON(p.url+"/readyz", &r)
	if err != nil || code != http.StatusOK {
		return false
	}
	switch {
	case p.name == "rrc-router":
		return r.WriteTarget == f.nodes[0].url
	case p != f.nodes[0] && r.Replication != nil:
		return r.Replication.Role == "follower" && r.Replication.CaughtUp && r.Replication.LagRecords == 0
	}
	return true
}

func (f *fleet) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	pending := append([]*proc(nil), f.procs...)
	for len(pending) > 0 {
		for _, p := range pending {
			if p.exited() {
				return fmt.Errorf("%s exited during set-up (see its log)", p.name)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s", pending[0].name, limit)
		}
		if f.ready(pending[0]) {
			pending[0].readyAt = time.Now()
			pending = pending[1:]
			continue
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// followerCaughtUp reports whether every follower shows lag 0.
func (f *fleet) followerCaughtUp() bool {
	for _, p := range f.nodes[1:] {
		if !f.ready(p) {
			return false
		}
	}
	return true
}

// procCPU returns a process's user+system CPU time in seconds, from
// /proc/<pid>/stat (clock ticks at the Linux USER_HZ of 100).
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	fields := strings.Fields(string(raw[i+1:]))
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

// procHWM returns a process's peak resident set (VmHWM) in bytes.
func procHWM(pid int) (float64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// fleetCPU sums CPU seconds over the fleet.
func (f *fleet) cpu() (float64, error) {
	var total float64
	for _, p := range f.procs {
		c, err := procCPU(p.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func (f *fleet) rssMB() (float64, error) {
	var total float64
	for _, p := range f.procs {
		b, err := procHWM(p.pid())
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total / (1 << 20), nil
}
