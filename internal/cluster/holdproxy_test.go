package cluster_test

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

// holdProxy is a TCP forwarder standing between the router and one shard.
// Traffic passes untouched until hold(n): from then on at most n more bytes
// travel from the shard toward the router, after which the proxy stops
// reading — the shard provably still owes the rest of its stream, however
// large the kernel's socket buffers are. sever closes the listener and
// every connection, which is how a crashed host looks from the router.
type holdProxy struct {
	ln     net.Listener
	target string

	held  atomic.Bool
	allow atomic.Int64 // bytes still allowed toward the router once held
	cut   chan struct{}

	mu    sync.Mutex
	conns []net.Conn
	once  sync.Once
}

func newHoldProxy(t *testing.T, target string) *holdProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &holdProxy{ln: ln, target: target, cut: make(chan struct{})}
	go p.accept()
	t.Cleanup(p.sever)
	return p
}

func (p *holdProxy) addr() string { return p.ln.Addr().String() }

func (p *holdProxy) accept() {
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			down.Close() //nolint:errcheck
			continue
		}
		if !p.track(down, up) {
			return
		}
		go func() {
			io.Copy(up, down) //nolint:errcheck
			up.Close()        //nolint:errcheck
		}()
		go p.pump(down, up)
	}
}

// track registers a connection pair, closing it instead when the proxy is
// already severed.
func (p *holdProxy) track(cs ...net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.cut:
		for _, c := range cs {
			c.Close() //nolint:errcheck
		}
		return false
	default:
	}
	p.conns = append(p.conns, cs...)
	return true
}

// pump forwards shard → router, honoring the hold allowance.
func (p *holdProxy) pump(dst, src net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			stop := false
			if p.held.Load() {
				left := p.allow.Add(-int64(n)) + int64(n)
				if left < int64(n) {
					chunk, stop = chunk[:max(left, 0)], true
				}
			}
			if _, werr := dst.Write(chunk); werr != nil {
				return
			}
			if stop {
				<-p.cut // hold: read nothing more until severed
				return
			}
		}
		if err != nil {
			dst.Close() //nolint:errcheck
			return
		}
	}
}

// hold caps the shard → router traffic from now on at n bytes.
func (p *holdProxy) hold(n int64) {
	p.allow.Store(n)
	p.held.Store(true)
}

func (p *holdProxy) sever() {
	p.once.Do(func() {
		p.mu.Lock()
		close(p.cut)
		conns := p.conns
		p.mu.Unlock()
		p.ln.Close() //nolint:errcheck
		for _, c := range conns {
			c.Close() //nolint:errcheck
		}
	})
}
