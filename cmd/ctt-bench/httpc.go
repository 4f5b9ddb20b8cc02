package main

// A minimal HTTP/1.1 client over one keep-alive TCP connection. The
// load generator shares two cores with the servers it measures, so it
// sends pre-rendered request bytes and parses only what it needs of
// the answer: no per-request goroutines, no header maps, one reused
// body buffer. It speaks exactly the subset ctt-server answers with
// (Content-Length or chunked bodies, no trailers).

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"strconv"
	"time"
)

// opTimeout is how long any one operation may take before it counts as
// failed.
const opTimeout = 5 * time.Second

type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte // reused across round trips

	// gzipped reports whether the last response carried
	// Content-Encoding: gzip.
	gzipped bool
	// broken is set by the first I/O or framing error: the stream
	// position is unknown after one, so the connection is finished.
	broken bool
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() } // nothing buffered to lose on a client socket

// getRequest renders a GET for path with the given Accept-Encoding.
func getRequest(path, acceptEncoding string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: ctt-bench\r\nAccept-Encoding: " + acceptEncoding + "\r\n\r\n")
}

// queryPath renders an /api/query URL with absolute millisecond bounds.
func queryPath(startMS, endMS int64, m string) string {
	return "/api/query?start=" + strconv.FormatInt(startMS, 10) +
		"&end=" + strconv.FormatInt(endMS, 10) + "&m=" + url.QueryEscape(m)
}

// roundTrip sends req and reads one full response. The returned body
// aliases the connection's buffer and is valid until the next call.
func (c *conn) roundTrip(req []byte) (status int, body []byte, err error) {
	defer func() { c.broken = c.broken || err != nil }()
	if err := c.c.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	return c.readResponse()
}

func (c *conn) readResponse() (status int, body []byte, err error) {
	status, length, chunked, err := c.readHead()
	if err != nil {
		return 0, nil, err
	}
	c.body = c.body[:0]
	switch {
	case status == 204 || status == 304:
	case chunked:
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if n == 0 {
				// No trailers are ever sent: the blank line ends the body.
				if _, err := c.br.ReadSlice('\n'); err != nil {
					return 0, nil, err
				}
				break
			}
			if err := c.readBody(int(n)); err != nil {
				return 0, nil, err
			}
			if _, err := c.br.Discard(2); err != nil {
				return 0, nil, err
			}
		}
	case length >= 0:
		if err := c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errors.New("response with neither Content-Length nor chunked encoding")
	}
	return status, c.body, nil
}

// readHead parses the status line and the three headers the harness
// cares about. length is -1 when no Content-Length was sent.
func (c *conn) readHead() (status, length int, chunked bool, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, 0, false, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, 0, false, fmt.Errorf("bad status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, 0, false, fmt.Errorf("bad status line %q", line)
	}
	length, c.gzipped = -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, 0, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			return status, length, chunked, nil
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, 0, false, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Content-Encoding")):
			c.gzipped = bytes.EqualFold(v, []byte("gzip"))
		}
	}
}

// readBody appends exactly n bytes from the wire to c.body.
func (c *conn) readBody(n int) error {
	off := len(c.body)
	if cap(c.body) < off+n {
		grown := make([]byte, off, 2*(off+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:off+n]
	_, err := io.ReadFull(c.br, c.body[off:])
	return err
}

// gunzipper inflates response bodies into one reused buffer.
type gunzipper struct {
	zr  *gzip.Reader
	buf bytes.Buffer
}

// plain returns body inflated when gzipped, unchanged otherwise. The
// result is valid until the next call.
func (g *gunzipper) plain(body []byte, gzipped bool) ([]byte, error) {
	if !gzipped {
		return body, nil
	}
	src := bytes.NewReader(body)
	if g.zr == nil {
		zr, err := gzip.NewReader(src)
		if err != nil {
			return nil, err
		}
		g.zr = zr
	} else if err := g.zr.Reset(src); err != nil {
		return nil, err
	}
	g.buf.Reset()
	if _, err := g.buf.ReadFrom(g.zr); err != nil {
		return nil, err
	}
	return g.buf.Bytes(), nil
}

// openStream subscribes to /api/stream and returns the connection
// positioned after the response head, ready for event lines.
func openStream(addr, metricPrefix string) (*conn, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	if err := c.c.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		c.close()
		return nil, err
	}
	req := "GET /api/stream?metric=" + url.QueryEscape(metricPrefix) + " HTTP/1.1\r\nHost: ctt-bench\r\nAccept: text/event-stream\r\n\r\n"
	if _, err := c.c.Write([]byte(req)); err != nil {
		c.close()
		return nil, err
	}
	status, _, _, err := c.readHead()
	if err == nil && status != 200 {
		err = fmt.Errorf("/api/stream: status %d", status)
	}
	if err != nil {
		c.close()
		return nil, err
	}
	// Events arrive whenever they arrive: no read deadline from here on;
	// the reader stops when the harness closes the connection.
	if err := c.c.SetDeadline(time.Time{}); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}
