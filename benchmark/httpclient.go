package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
)

// httpConn is one HTTP/1.1 keep-alive connection driven by hand: a
// request is one buffered write, a response is a status line, headers
// and Content-Length bytes. net/http's client would spend more
// processor time per round trip than the server under test does, and
// on a two-core box the client's share is the noise floor of every
// serving metric. One httpConn is used by one goroutine.
type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	req  []byte // request scratch
	body []byte // response scratch
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (h *httpConn) Close() error { return h.c.Close() }

// do sends one request (body nil for GET) and returns the status code
// and the response body, which is valid until the next call.
func (h *httpConn) do(method, path string, body []byte) (int, []byte, error) {
	b := h.req[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	if body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, body...)
	h.req = b
	if _, err := h.c.Write(b); err != nil {
		return 0, nil, err
	}

	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, _ := bytes.Cut(line, []byte(":"))
		if bytes.EqualFold(k, []byte("Content-Length")) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(v)))
			if err != nil {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", v)
			}
		}
	}
	if length < 0 {
		// The server's answers are small enough that net/http always
		// sets Content-Length; anything else is an error to count.
		return 0, nil, fmt.Errorf("response without Content-Length (status %d)", status)
	}
	if cap(h.body) < length {
		h.body = make([]byte, length)
	}
	h.body = h.body[:length]
	if _, err := io.ReadFull(h.br, h.body); err != nil {
		return 0, nil, err
	}
	return status, h.body, nil
}
