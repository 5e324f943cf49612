package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// killLeftovers SIGKILLs fleet processes that an earlier run started
// from binDir and did not stop, and returns how many there were.
func killLeftovers(binDir string) int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return 0
	}
	killed := 0
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == os.Getpid() {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		// A rebuild replaces the binary under a running process.
		exe = strings.TrimSuffix(exe, " (deleted)")
		if err != nil || filepath.Dir(exe) != binDir {
			continue
		}
		if b := filepath.Base(exe); b == "rrc-server" || b == "rrc-router" {
			_ = syscall.Kill(pid, syscall.SIGKILL) // ESRCH: it exited meanwhile
			killed++
		}
	}
	return killed
}

// removeStaleRuns deletes run directories (named <workload>-<seed>-<pid>)
// whose benchmark process no longer exists: a run killed before it could
// clean up.
func removeStaleRuns(runsDir string) {
	ents, err := os.ReadDir(runsDir)
	if err != nil {
		return // no runs yet
	}
	for _, e := range ents {
		i := strings.LastIndexByte(e.Name(), '-')
		pid, err := strconv.Atoi(e.Name()[i+1:])
		if err != nil || syscall.Kill(pid, 0) == syscall.ESRCH {
			_ = os.RemoveAll(filepath.Join(runsDir, e.Name())) // best effort
		}
	}
}

// tcpEntry is one socket from /proc/net/tcp.
type tcpEntry struct {
	localPort, remPort int
	loopback           bool
	state              string // hex state; "06" is TIME_WAIT
}

func readTCP() ([]tcpEntry, error) {
	var out []tcpEntry
	for _, path := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		fh, err := os.Open(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		sc := bufio.NewScanner(fh)
		sc.Scan() // header
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 4 {
				continue
			}
			la, lp, ok1 := splitHexAddr(f[1])
			_, rp, ok2 := splitHexAddr(f[2])
			if !ok1 || !ok2 {
				continue
			}
			out = append(out, tcpEntry{localPort: lp, remPort: rp, state: f[3],
				loopback: la == "0100007F" || la == "00000000000000000000000001000000" || strings.HasSuffix(la, "0100007F")})
		}
		fh.Close()
	}
	return out, nil
}

func splitHexAddr(s string) (string, int, bool) {
	addr, port, ok := strings.Cut(s, ":")
	if !ok {
		return "", 0, false
	}
	p, err := strconv.ParseUint(port, 16, 16)
	return addr, int(p), err == nil
}

// timeWait counts loopback sockets in TIME_WAIT.
func timeWait() (int, error) {
	ents, err := readTCP()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if e.loopback && e.state == "06" {
			n++
		}
	}
	return n, nil
}

// maxTimeWait is the loopback TIME_WAIT count above which a run waits:
// well under the 28k-port ephemeral range, so leftovers cannot exhaust it.
const maxTimeWait = 2000

// waitTimeWaitDrained waits (up to TIME_WAIT's 60 s lifetime) until
// loopback TIME_WAIT sockets fall below maxTimeWait, and returns the
// count it started with.
func waitTimeWaitDrained() (int, error) {
	first, err := timeWait()
	if err != nil {
		return 0, err
	}
	n := first
	for deadline := time.Now().Add(65 * time.Second); n >= maxTimeWait; n, err = timeWait() {
		if err != nil {
			return first, err
		}
		if time.Now().After(deadline) {
			return first, fmt.Errorf("%d loopback sockets still in TIME_WAIT", n)
		}
		time.Sleep(time.Second)
	}
	return first, nil
}

// clientPorts returns the ephemeral ports of every connection, in any
// state, to one of the given listening ports. A connection opened and
// closed within a phase shorter than TIME_WAIT's 60 s still shows at
// the phase's end, so the set difference across a phase counts dials.
func clientPorts(ports map[int]bool) (map[int]bool, error) {
	ents, err := readTCP()
	if err != nil {
		return nil, err
	}
	out := map[int]bool{}
	for _, e := range ents {
		switch {
		case e.state == "0A": // LISTEN
		case ports[e.localPort] && !ports[e.remPort]:
			out[e.remPort] = true
		case ports[e.remPort] && !ports[e.localPort]:
			out[e.localPort] = true
		}
	}
	return out, nil
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
