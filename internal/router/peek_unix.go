//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd

package router

import "syscall"

// peerClosed reports whether the peer has closed or reset c: a
// non-blocking peek finds end-of-stream or an error where a live idle
// connection has no data yet. It reads nothing, so the transport's own
// reader still sees whatever is there.
func peerClosed(c syscall.Conn) bool {
	raw, err := c.SyscallConn()
	if err != nil {
		return false
	}
	closed := false
	raw.Control(func(fd uintptr) {
		var b [1]byte
		n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		switch err {
		case nil:
			closed = n == 0
		case syscall.EAGAIN, syscall.EINTR:
		default:
			closed = true
		}
	})
	return closed
}
