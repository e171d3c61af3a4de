package neat_test

import (
	"bytes"
	"fmt"
	"testing"

	"neat"
	"neat/internal/sim"
	"neat/internal/socketlib"
)

// Ownership tests of the byte path through the whole system: the socket
// library takes the receive chunk and the event box back when OnData
// returns, plain Send copies what it is given, a TSO super-segment travels in
// a buffer of its own. A buffer recycled while something still reads it, or
// returned twice, shows up as a stream that is not the bytes sent.

// patterned returns n bytes no two MSS-sized windows of which are alike.
func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + i>>8*17 + i>>16)
	}
	return b
}

func bytePathBed(t *testing.T) *neat.Testbed {
	t.Helper()
	tb, err := neat.TopologyConfig{Seed: 9, System: neat.SystemConfig{Replicas: 2, TSO: true}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestEchoOfBorrowedSlice: a server that hands the slice OnData lent it
// straight to Send — what the quickstart and faulttolerance examples do —
// under back-to-back full-MSS segments returns exactly the bytes it got,
// although every chunk is recycled the moment its OnData returns.
func TestEchoOfBorrowedSlice(t *testing.T) {
	tb := bytePathBed(t)
	srv := apiApp(tb.Server.AppThread(5), tb.System.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		lib.Listen(ctx, 4000, 8).OnAccept = func(ctx *sim.Context, s *socketlib.Socket) {
			s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
				if len(data) > 0 {
					s.Send(ctx, data)
				}
			}
		}
	})
	srv.Deliver("go")
	tb.Net.Sim.RunFor(neat.Millisecond)

	want := patterned(200_000)
	var got []byte
	pieces := 0
	cli := apiApp(tb.Client.AppThread(4), tb.ClientSystem.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		s := lib.Connect(ctx, neat.IPv4(10, 0, 0, 1), 4000)
		s.OnConnect = func(ctx *sim.Context, err error) {
			if err == nil {
				s.Send(ctx, want)
			}
		}
		s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
			got = append(got, data...)
			pieces++
		}
	})
	cli.Deliver("go")
	tb.Net.Sim.RunFor(200 * neat.Millisecond)

	if !bytes.Equal(got, want) {
		t.Fatalf("echoed %d of %d bytes in %d pieces, or not the bytes sent", len(got), len(want), pieces)
	}
	if pieces < len(want)/1460 {
		t.Fatalf("%d pieces for %d bytes: segments were not delivered one chunk each", pieces, len(want))
	}
}

// download fetches the server's payload on a fresh connection and returns
// the pieces OnData saw, copied.
type download struct {
	pieces [][]byte
	bytes  int
}

func (d *download) start(tb *neat.Testbed, thread int) *sim.Proc {
	p := apiApp(tb.Client.AppThread(thread), tb.ClientSystem.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		s := lib.Connect(ctx, neat.IPv4(10, 0, 0, 1), 4000)
		s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
			d.pieces = append(d.pieces, append([]byte(nil), data...))
			d.bytes += len(data)
		}
	})
	p.Deliver("go")
	return p
}

// serveOnAccept starts a server that sends payload to whoever connects.
func serveOnAccept(tb *neat.Testbed, payload []byte) {
	srv := apiApp(tb.Server.AppThread(5), tb.System.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		lib.Listen(ctx, 4000, 8).OnAccept = func(ctx *sim.Context, s *socketlib.Socket) {
			s.Send(ctx, payload)
		}
	})
	srv.Deliver("go")
	tb.Net.Sim.RunFor(neat.Millisecond)
}

// TestDroppedEvDataCorruptsNothing loses a tenth of the messages to the
// receiving application, EvData boxes and their chunks with them: those
// bytes are gone (the channel is not reliable), but every piece that does
// arrive is an in-order piece of the stream, and a later connection of the
// same application gets the stream whole — lost boxes and chunks went to the
// GC, not back into a pool while something still held them.
func TestDroppedEvDataCorruptsNothing(t *testing.T) {
	tb := bytePathBed(t)
	want := patterned(4_000_000) // > 3 ms of link time
	serveOnAccept(tb, want)

	var lossy download
	app := lossy.start(tb, 4)
	tb.Net.Sim.RunFor(neat.Millisecond) // connected; the transfer is under way
	app.SetDropRate(0.1)
	tb.Net.Sim.RunFor(200 * neat.Millisecond)
	app.SetDropRate(0)

	if app.Stats().DropInjected == 0 || lossy.bytes == 0 || lossy.bytes >= len(want) {
		t.Fatalf("%d messages dropped, %d of %d bytes arrived: the test did not lose any data",
			app.Stats().DropInjected, lossy.bytes, len(want))
	}
	pos := 0
	for i, p := range lossy.pieces {
		at := bytes.Index(want[pos:], p)
		if at < 0 {
			t.Fatalf("piece %d (%d bytes) is not a piece of the stream after offset %d", i, len(p), pos)
		}
		pos += at + len(p)
	}

	var clean download
	clean.start(tb, 5)
	tb.Net.Sim.RunFor(200 * neat.Millisecond)
	if got := bytes.Join(clean.pieces, nil); !bytes.Equal(got, want) {
		t.Fatalf("after the losses a clean download got %d of %d bytes, or not the bytes sent", len(got), len(want))
	}
}

// TestDroppedConnEventsCorruptNothing loses a fifth of the messages to a
// server application while connections churn through it, pooled EvAccepted
// and EvClosed boxes among them. A lost box goes to the GC, never back into
// its pool while a message still holds it: afterwards, with nothing dropped,
// every connection is accepted as a socket of its own, echoes its own bytes,
// and its peer's reset is reported once, on that socket.
func TestDroppedConnEventsCorruptNothing(t *testing.T) {
	tb := bytePathBed(t)
	type srvSock struct {
		got    []byte
		closes int
		reset  bool
	}
	var socks []*srvSock
	srv := apiApp(tb.Server.AppThread(5), tb.System.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		lib.Listen(ctx, 4000, 64).OnAccept = func(ctx *sim.Context, s *socketlib.Socket) {
			ss := &srvSock{}
			socks = append(socks, ss)
			s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
				ss.got = append(ss.got, data...)
				s.Send(ctx, data)
			}
			s.OnClosed = func(ctx *sim.Context, reset bool, err error) {
				ss.closes++
				ss.reset = reset
			}
		}
	})
	srv.Deliver("go")
	tb.Net.Sim.RunFor(neat.Millisecond)

	const perRound = 40
	payload := func(i int) []byte { return bytes.Repeat([]byte(fmt.Sprintf("<%03d>", i)), 12) }
	next, echoed := 0, 0
	cli := apiApp(tb.Client.AppThread(4), tb.ClientSystem.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		for end := next + perRound; next < end; next++ {
			want, s := payload(next), lib.Connect(ctx, neat.IPv4(10, 0, 0, 1), 4000)
			var got []byte
			s.OnConnect = func(ctx *sim.Context, err error) {
				if err == nil {
					s.Send(ctx, want)
				}
			}
			s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
				if got = append(got, data...); len(got) >= len(want) {
					if bytes.Equal(got, want) {
						echoed++
					}
					s.Abort(ctx)
				}
			}
		}
	})
	srv.SetDropRate(0.2)
	cli.Deliver("go")
	tb.Net.Sim.RunFor(50 * neat.Millisecond)
	srv.SetDropRate(0)
	lossy := len(socks)
	if srv.Stats().DropInjected == 0 || lossy >= perRound {
		t.Fatalf("%d messages dropped, %d of %d connections accepted: no EvAccepted was lost",
			srv.Stats().DropInjected, lossy, perRound)
	}

	echoed = 0
	cli.Deliver("go")
	tb.Net.Sim.RunFor(50 * neat.Millisecond)
	if echoed != perRound || len(socks)-lossy != perRound {
		t.Fatalf("after the losses %d of %d connections were accepted and %d echoed intact",
			len(socks)-lossy, perRound, echoed)
	}
	seen := map[string]bool{}
	for _, ss := range socks[lossy:] {
		if ss.closes != 1 || !ss.reset {
			t.Fatalf("a reset connection reported %d closes, reset %v", ss.closes, ss.reset)
		}
		seen[string(ss.got)] = true
	}
	for i := perRound; i < 2*perRound; i++ {
		if !seen[string(payload(i))] {
			t.Fatalf("connection %d's bytes reached no socket of their own", i)
		}
	}
}
