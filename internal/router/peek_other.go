//go:build !(linux || darwin || dragonfly || freebsd || netbsd || openbsd)

package router

import "syscall"

// peerClosed has no non-blocking peek here; a write on a connection the
// backend already closed surfaces as an ambiguous error, as it would on
// any pooled transport.
func peerClosed(syscall.Conn) bool { return false }
