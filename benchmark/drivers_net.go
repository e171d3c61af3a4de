package main

import (
	"errors"
	"math/rand"
	"time"

	"neat/internal/bufpool"
	"neat/internal/ipeng"
	"neat/internal/nicdev"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/steer"
	"neat/internal/wire"
)

var driverSink uint64

// frameSize is the on-wire size of the workload's typical frame.
func frameSize(p layerParams) int {
	return proto.WireSizeTCP(&proto.TCPHeader{}, p.payload)
}

// driveBufpool: one Get and Put of a frame-sized buffer.
func driveBufpool(p layerParams) (float64, error) {
	n := 1000 * p.scaled(1000)
	size := frameSize(p)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		b := bufpool.Get(size)
		b[0] = byte(i)
		bufpool.Put(b)
	}
	return perCall(time.Since(t0), n), nil
}

// driveArena: carve one payload-sized Ref out of a slab and release it.
func driveArena(p layerParams) (float64, error) {
	n := 1000 * p.scaled(1000)
	var a bufpool.Arena
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r := a.Alloc(p.payload)
		r.B[0] = byte(i)
		r.Release()
	}
	return perCall(time.Since(t0), n), nil
}

// pooledCopy returns a pooled buffer holding a copy of tmpl: the form in
// which frames reach every consumer that takes ownership.
func pooledCopy(tmpl []byte) []byte {
	raw := bufpool.Get(len(tmpl))
	copy(raw, tmpl)
	return raw
}

// driveDecode: DecodeFrame (every checksum verified) plus Release, on a
// pooled copy of the frame (the copy is part of the figure).
func driveDecode(p layerParams) (float64, error) {
	n := 1000 * p.scaled(200)
	tmpl := frameTemplates(1, p.payload, drvDstMAC)[0]
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f, err := proto.DecodeFrame(pooledCopy(tmpl))
		if err != nil {
			return 0, err
		}
		f.Release()
	}
	return perCall(time.Since(t0), n), nil
}

// driveAppend: serialize one Ethernet/IPv4/TCP frame into a pooled
// scratch buffer, checksums included.
func driveAppend(p layerParams) (float64, error) {
	n := 1000 * p.scaled(200)
	body := make([]byte, p.payload)
	eth := proto.EthernetHeader{Dst: drvDstMAC, Src: drvSrcMAC, Type: proto.EtherTypeIPv4}
	ip := proto.IPv4Header{TTL: 64, Src: drvSrcIP, Dst: drvDstIP}
	tcp := proto.TCPHeader{SrcPort: 1024, DstPort: 80, Flags: proto.TCPAck, Window: 65535}
	size := proto.WireSizeTCP(&tcp, len(body))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tcp.Seq = uint32(i)
		b := proto.AppendTCP(bufpool.Get(size)[:0], eth, ip, tcp, body)
		bufpool.Put(b)
	}
	return perCall(time.Since(t0), n), nil
}

// driveChecksum: the Internet checksum over one payload, per KiB.
func driveChecksum(p layerParams) (float64, error) {
	n := 1000 * p.scaled(200)
	body := make([]byte, p.payload)
	for i := range body {
		body[i] = byte(i * 7)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		driverSink += uint64(proto.Checksum(body, uint32(i)))
	}
	return perCall(time.Since(t0), n) * 1024 / float64(len(body)), nil
}

// putPort is a wire.Port that recycles what it receives.
type putPort struct{ n int }

func (p *putPort) Receive(frame []byte) {
	p.n++
	bufpool.Put(frame)
}

// driveFrames transmits n frames (cycling through tmpls) through send in
// bursts of 64 and runs the simulation after each burst.
func driveFrames(s *sim.Simulator, tmpls [][]byte, n int, send func(raw []byte)) time.Duration {
	t0 := time.Now()
	for done := 0; done < n; done += 64 {
		for i := 0; i < 64; i++ {
			send(pooledCopy(tmpls[(done+i)%len(tmpls)]))
		}
		s.RunFor(200 * sim.Microsecond)
	}
	return time.Since(t0)
}

// driveLink: one frame across a link: serialization event, delivery.
func driveLink(p layerParams) (float64, error) {
	n := 64 * p.scaled(2000)
	s := sim.New(1)
	l := wire.NewLink(s)
	sink := &putPort{}
	l.Attach(1, sink)
	d := driveFrames(s, frameTemplates(1, p.payload, drvDstMAC), n, func(raw []byte) { l.Transmit(0, raw) })
	if sink.n != n {
		return 0, errors.New("link lost frames")
	}
	return perCall(d, n), nil
}

// driveSwitch: one frame from an access link through the switch to
// another access link. vip=false forwards by the static MAC table;
// vip=true addresses a virtual service, so the switch picks (first frame
// of a flow) or looks up (later frames) a backend and rewrites the
// destination MAC. Flows cycle over the workload's connection count.
func driveSwitch(p layerParams, vip bool) (float64, error) {
	n := 64 * p.scaled(1000)
	s := sim.New(1)
	sw := wire.NewSwitch(s, "tor")
	in := wire.NewLink(s)
	sw.AddPort("client", in.End(1), drvSrcMAC)
	sink := &putPort{}
	dst := drvDstMAC
	if vip {
		dst = proto.MAC{2, 0, 0, 0, 9, 9}
		svc, err := sw.AddService(wire.L4ServiceConfig{Name: "vip", VIP: drvDstIP, VMAC: dst})
		if err != nil {
			return 0, err
		}
		for b := 0; b < p.backends; b++ {
			mac := proto.MAC{2, 0, 0, 0, 2, byte(b)}
			l := wire.NewLink(s)
			l.Attach(0, sink)
			svc.AddBackend(sw.AddPort("member", l.End(1), mac), mac, wire.BackendActive)
		}
	} else {
		out := wire.NewLink(s)
		out.Attach(0, sink)
		sw.AddPort("server", out.End(1), dst)
	}
	tmpls := frameTemplates(min(p.conns, 4096), p.payload, dst)
	d := driveFrames(s, tmpls, n, func(raw []byte) { in.Transmit(0, raw) })
	if sink.n != n {
		return 0, errors.New("switch lost frames")
	}
	return perCall(d, n), nil
}

// driveNICRx: the NIC alone: decode, classify against the workload's
// flow-director filters, enqueue; then the drain and release a consumer
// does. No interrupt, no driver process.
func driveNICRx(p layerParams) (float64, error) {
	n := 64 * p.scaled(2000)
	s := sim.New(1)
	nic := nicdev.NewNIC(s, "nic", drvDstMAC, wire.NewLink(s), 0, p.replicas)
	tmpls := frameTemplates(min(p.conns, 4096), p.payload, drvDstMAC)
	if err := installFilters(nic, tmpls, p.replicas); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for done := 0; done < n; done += 64 {
		for i := 0; i < 64; i++ {
			nic.Receive(pooledCopy(tmpls[(done+i)%len(tmpls)]))
		}
		for q := 0; q < p.replicas; q++ {
			for _, f := range nic.DrainQueue(q) {
				f.Release()
			}
		}
	}
	d := time.Since(t0)
	if st := nic.Stats(); st.RxFrames != uint64(n) || st.RxFiltered != uint64(n) {
		return 0, errors.New("NIC did not steer every frame by its filter")
	}
	return perCall(d, n), nil
}

// installFilters pins each template's flow to a queue, as core does when a
// connection establishes.
func installFilters(nic *nicdev.NIC, tmpls [][]byte, queues int) error {
	for i, t := range tmpls {
		f, err := proto.DecodeFrame(pooledCopy(t))
		if err != nil {
			return err
		}
		flow, _ := f.Flow()
		f.Release()
		if err := nic.InstallFilter(flow, i%queues); err != nil {
			return err
		}
	}
	return nil
}

// driveNICDriver: one frame from the wire to a replica stub: link, NIC
// classification, interrupt, the driver process draining its queues, the
// send to the bound process and that process's dispatch.
func driveNICDriver(p layerParams) (float64, error) {
	n := 64 * p.scaled(1000)
	s := sim.New(1)
	m := sim.NewMachine(s, "m", 1+p.replicas, 1, 2_000_000_000)
	l := wire.NewLink(s)
	nic := nicdev.NewNIC(s, "m.nic", drvDstMAC, l, 0, p.replicas)
	drv := nicdev.NewDriver(m.Thread(0, 0), "m.nicdrv", nic, nicdev.DefaultDriverCosts())
	sink := &countingProc{fn: func(ctx *sim.Context, msg sim.Message) {
		if f, ok := msg.(*proto.Frame); ok {
			f.Release()
		}
	}}
	for q := 0; q < p.replicas; q++ {
		drv.BindQueue(q, sim.NewProc(m.Thread(1+q, 0), "replica", sink, sim.ProcConfig{}))
	}
	tmpls := frameTemplates(min(p.conns, 4096), p.payload, drvDstMAC)
	if err := installFilters(nic, tmpls, p.replicas); err != nil {
		return 0, err
	}
	d := driveFrames(s, tmpls, n, func(raw []byte) { l.Transmit(1, raw) })
	s.RunFor(sim.Millisecond)
	if sink.n != n {
		return 0, errors.New("driver did not dispatch every frame")
	}
	return perCall(d, n), nil
}

// ipStub is the ipeng.Env of the IP drivers: it recycles what the engine
// hands on.
type ipStub struct{ up, down int }

func (e *ipStub) Now() sim.Time { return 0 }
func (e *ipStub) TransmitFrame(raw []byte) {
	e.down++
	bufpool.Put(raw)
}
func (e *ipStub) TransmitTSO(proto.EthernetHeader, proto.IPv4Header, proto.TCPHeader, []byte, int) {
	e.down++
}
func (e *ipStub) DeliverTransport(f *proto.Frame) {
	e.up++
	f.Release()
}
func (e *ipStub) After(sim.Time, func()) {}

func newIPDriverEngine(env *ipStub) *ipeng.Engine {
	return ipeng.NewEngine(env, ipeng.Config{
		Addr: drvDstIP, Mask: proto.IPv4(255, 255, 0, 0), MAC: drvDstMAC,
		StaticARP: map[proto.Addr]proto.MAC{drvSrcIP: drvSrcMAC},
	})
}

// driveIPInput: Engine.Input of an already decoded TCP frame (address
// check, protocol demux, hand-up). Decoding is outside the timed region.
func driveIPInput(p layerParams) (float64, error) {
	batches, per := p.scaled(1000), 128
	env := &ipStub{}
	e := newIPDriverEngine(env)
	tmpl := frameTemplates(1, p.payload, drvDstMAC)[0]
	frames := make([]*proto.Frame, per)
	var d time.Duration
	for b := 0; b < batches; b++ {
		for i := range frames {
			f, err := proto.DecodeFrame(pooledCopy(tmpl))
			if err != nil {
				return 0, err
			}
			frames[i] = f
		}
		t0 := time.Now()
		for _, f := range frames {
			e.Input(f)
		}
		d += time.Since(t0)
	}
	if env.up != batches*per {
		return 0, errors.New("IP input did not deliver every frame")
	}
	return perCall(d, batches*per), nil
}

// driveIPOutput: Engine.OutputFrame of a segment marshalled at
// proto.TxHeadroom: route, ARP lookup, headers written in place.
func driveIPOutput(p layerParams) (float64, error) {
	batches, per := p.scaled(1000), 128
	env := &ipStub{}
	e := newIPDriverEngine(env)
	body := make([]byte, p.payload)
	tcp := proto.TCPHeader{SrcPort: 80, DstPort: 1024, Flags: proto.TCPAck, Window: 65535}
	size := proto.TxHeadroom + tcp.EncodedLen(len(body))
	frames := make([][]byte, per)
	var d time.Duration
	for b := 0; b < batches; b++ {
		for i := range frames {
			buf := bufpool.Get(size)
			frames[i] = tcp.Marshal(buf[:proto.TxHeadroom], drvDstIP, drvSrcIP, body)
		}
		t0 := time.Now()
		for _, f := range frames {
			e.OutputFrame(drvSrcIP, proto.ProtoTCP, f)
		}
		d += time.Since(t0)
	}
	if env.down != batches*per {
		return 0, errors.New("IP output did not transmit every frame")
	}
	return perCall(d, batches*per), nil
}

// driveSteer: Placer.QueueFor over the workload's active set (the
// default hash policy, as every workload here runs it).
func driveSteer(p layerParams) (float64, error) {
	n := 1000 * p.scaled(2000)
	pl, err := steer.New(steer.Config{}, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		return 0, err
	}
	active := make([]int, p.replicas)
	for i := range active {
		active[i] = i
	}
	pl.SetActive(active)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		driverSink += uint64(pl.QueueFor(uint32(i) * 2654435761))
	}
	return perCall(time.Since(t0), n), nil
}
