package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// httpConn is a minimal HTTP/1.1 client over one kept-alive
// connection: one request at a time, bodies read into a reused buffer.
// net/http's client allocates several KB per request, and the garbage
// collections that follow would stall the generator and be charged to
// the fleet as latency.
type httpConn struct {
	addr string // host:port
	c    net.Conn
	r    *bufio.Reader
	req  []byte
	body []byte
}

func newHTTPConn(baseURL string) *httpConn {
	return &httpConn{addr: strings.TrimPrefix(baseURL, "http://")}
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// post sends one request and returns the status and the body, which is
// valid until the next call. Any error closes the connection; the next
// call dials again.
func (h *httpConn) post(path string, body []byte, timeout time.Duration) (int, []byte, error) {
	if h.c == nil {
		c, err := net.DialTimeout("tcp", h.addr, timeout)
		if err != nil {
			return 0, nil, err
		}
		h.c, h.r = c, bufio.NewReaderSize(c, 16<<10)
	}
	status, keep, err := h.roundTrip(path, body, timeout)
	if err != nil || !keep {
		h.close()
	}
	return status, h.body, err
}

func (h *httpConn) roundTrip(path string, body []byte, timeout time.Duration) (status int, keep bool, err error) {
	if err := h.c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, false, err
	}
	h.req = append(h.req[:0], "POST "...)
	h.req = append(h.req, path...)
	h.req = append(h.req, " HTTP/1.1\r\nHost: "...)
	h.req = append(h.req, h.addr...)
	h.req = append(h.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	h.req = strconv.AppendInt(h.req, int64(len(body)), 10)
	h.req = append(h.req, "\r\n\r\n"...)
	h.req = append(h.req, body...)
	if _, err := h.c.Write(h.req); err != nil {
		return 0, false, err
	}
	line, err := h.r.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, keep := -1, false, line[7] == '1'
	for {
		line, err := h.r.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, false, fmt.Errorf("malformed header %q", line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, false, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			keep = keep && !bytes.EqualFold(value, []byte("close"))
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		err = h.readChunked()
	case length >= 0:
		err = h.readN(length)
	default:
		return 0, false, errors.New("response without a length")
	}
	return status, keep, err
}

func (h *httpConn) readN(n int) error {
	start := len(h.body)
	h.body = append(h.body, make([]byte, n)...)
	_, err := io.ReadFull(h.r, h.body[start:])
	return err
}

func (h *httpConn) readChunked() error {
	for {
		line, err := h.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		sz, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
		n, err := strconv.ParseInt(string(sz), 16, 32)
		if err != nil {
			return fmt.Errorf("malformed chunk size %q", line)
		}
		if n == 0 {
			// Trailers, then the blank line that ends the message.
			for {
				line, err := h.r.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return nil
				}
			}
		}
		if err := h.readN(int(n)); err != nil {
			return err
		}
		if _, err := h.r.Discard(2); err != nil { // the chunk's CRLF
			return err
		}
	}
}
