// Switch models the aggregation tier of a datacenter cluster: a
// store-and-forward Ethernet switch with any number of ports, each port
// the far side of one machine's access link. Frames are forwarded by a
// static MAC table (the topology builder knows every machine's MAC, so
// the switch never needs to learn), with unknown and broadcast
// destinations flooded.
//
// The switch also hosts the L4 load-balancer tier: an L4Service owns a
// virtual IP + virtual MAC pair and steers each flow addressed to it onto
// one backend machine of a server farm, reusing the flow-placement plane
// (internal/steer) one level up from where NEaT uses it inside a machine —
// the paper's partitioning argument applied to machines within a farm.
// Forwarding is direct-server-return style: the service rewrites only the
// destination MAC and the backend answers from the VIP it shares, so
// return traffic skips the balancer entirely, exactly like Maglev/DSR
// deployments. Established flows are pinned in a bounded flow table (the
// farm-level analogue of the NIC's flow-director filters), so placement
// policy changes and scale events never move a live connection between
// machines.
//
// In PDES mode the switch occupies its own scheduling domain (the topology
// builder gives it a one-core "forwarding ASIC" machine); every access
// link then crosses domains and contributes its wire lookahead, so a
// switched cluster parallelizes machine-per-domain just like the
// point-to-point farm topologies.
package wire

import (
	"fmt"
	"math/rand"

	"neat/internal/bufpool"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/steer"
)

// SwitchStats counts switch activity.
type SwitchStats struct {
	RxFrames    uint64
	Forwarded   uint64
	Flooded     uint64 // broadcast/unknown-destination copies transmitted
	DropPortDwn uint64 // frames dropped at a downed ingress or egress port
	DropNoRoute uint64 // unroutable frames (no table entry, flood impossible)
}

// swPort is one switch port: the switch-facing endpoint of an access link.
type swPort struct {
	name string
	ep   Endpoint
	up   bool
}

// swIngress adapts Port (which carries no port identity) onto a port index.
type swIngress struct {
	sw   *Switch
	port int
}

func (in *swIngress) Receive(frame []byte) { in.sw.ingress(in.port, frame) }

// swPend is one store-and-forward delivery in flight inside the switch.
type swPend struct {
	frame []byte
	out   int32
}

// Switch is the device model. Like the NIC it is hardware, not a process:
// it reacts to frame arrivals instantly plus a fixed store-and-forward
// latency, scheduled on its own domain.
type Switch struct {
	dom  *sim.Simulator
	Name string

	// Latency is the store-and-forward delay between a frame fully
	// arriving on the ingress port and its transmission starting on the
	// egress port (default 1 µs). Output-queue contention is modelled by
	// the egress link's transmitter serialization, as on the wire.
	Latency sim.Time

	ports []swPort
	macs  map[proto.MAC]int
	svcs  []*L4Service

	// pend/free recycle forward-event slots so steady-state forwarding
	// schedules without allocating (sim.EventHandler, slot as tag).
	pend []swPend
	free []uint32

	hop   string // fixed trace-hop name
	stats SwitchStats
}

// NewSwitch creates a switch scheduling on domain ds. In the default
// sequential mode ds is the simulator itself; in PDES mode the topology
// builder passes the domain of the switch's own one-core machine so
// forwarding parallelizes alongside the hosts.
func NewSwitch(ds *sim.Simulator, name string) *Switch {
	return &Switch{
		dom:     ds,
		Name:    name,
		Latency: sim.Microsecond,
		macs:    make(map[proto.MAC]int),
		hop:     "switch." + name,
	}
}

// Stats returns a snapshot of the switch counters.
func (sw *Switch) Stats() SwitchStats { return sw.stats }

// AddPort attaches the switch to endpoint ep under the given port name and
// returns the port index. macs lists the station addresses reachable
// behind the port (normally the one NIC MAC of the machine on the other
// end); they are entered into the static forwarding table. The endpoint is
// bound to the switch's scheduling domain, which in PDES mode turns the
// access link into a cross-domain mailbox channel.
func (sw *Switch) AddPort(name string, ep Endpoint, macs ...proto.MAC) int {
	idx := len(sw.ports)
	sw.ports = append(sw.ports, swPort{name: name, ep: ep, up: true})
	ep.Attach(&swIngress{sw: sw, port: idx})
	ep.Bind(sw.dom)
	for _, m := range macs {
		sw.macs[m] = idx
	}
	return idx
}

// SetPortUp raises or lowers port i. A downed port drops every frame in
// both directions — the model of an unplugged cable or a powered-off
// machine.
func (sw *Switch) SetPortUp(i int, up bool) { sw.ports[i].up = up }

// ingress handles one frame arriving on port in: route, then schedule the
// store-and-forward delivery.
func (sw *Switch) ingress(in int, frame []byte) {
	if !sw.ports[in].up {
		sw.stats.DropPortDwn++
		bufpool.Put(frame)
		return
	}
	sw.stats.RxFrames++
	if len(frame) < proto.EthernetHeaderLen {
		sw.stats.DropNoRoute++
		bufpool.Put(frame)
		return
	}
	var dst proto.MAC
	copy(dst[:], frame[0:6])

	// L4 service tier: frames addressed to a service's virtual MAC are
	// steered onto a farm backend (possibly rewriting the frame's
	// destination MAC in place).
	for _, svc := range sw.svcs {
		if dst == svc.cfg.VMAC {
			out, ok := svc.route(frame)
			if !ok {
				bufpool.Put(frame)
				return
			}
			sw.forward(in, out, frame)
			return
		}
	}

	if out, ok := sw.macs[dst]; ok {
		sw.forward(in, out, frame)
		return
	}
	// Broadcast or unknown unicast: flood to every other up port.
	sw.flood(in, frame)
}

// forward schedules the store-and-forward delivery of frame onto port out.
func (sw *Switch) forward(in, out int, frame []byte) {
	if out == in || !sw.ports[out].up {
		sw.stats.DropPortDwn++
		bufpool.Put(frame)
		return
	}
	sw.stats.Forwarded++
	if tr := sw.dom.Tracer(); tr != nil {
		tr.OnSpan(sw.hop, 0, sw.Latency)
	}
	var slot uint32
	if n := len(sw.free); n > 0 {
		slot = sw.free[n-1]
		sw.free = sw.free[:n-1]
	} else {
		slot = uint32(len(sw.pend))
		sw.pend = append(sw.pend, swPend{})
	}
	sw.pend[slot] = swPend{frame: frame, out: int32(out)}
	sw.dom.AtEvent(sw.dom.Now()+sw.Latency, sw, uint64(slot))
}

// OnEvent transmits the pending frame in slot tag (sim.EventHandler).
func (sw *Switch) OnEvent(tag uint64) {
	p := &sw.pend[tag]
	frame, out := p.frame, int(p.out)
	p.frame = nil
	sw.free = append(sw.free, uint32(tag))
	if !sw.ports[out].up {
		sw.stats.DropPortDwn++
		bufpool.Put(frame)
		return
	}
	sw.ports[out].ep.Transmit(frame)
}

// flood copies the frame onto every up port except the ingress one. With
// static MAC tables and static ARP this only ever runs for genuine
// broadcast traffic (ARP requests in hand-built topologies).
func (sw *Switch) flood(in int, frame []byte) {
	sent := false
	for i := range sw.ports {
		if i == in || !sw.ports[i].up {
			continue
		}
		cp := bufpool.Get(len(frame))
		copy(cp, frame)
		sw.stats.Flooded++
		sw.forward(in, i, cp)
		sent = true
	}
	if !sent {
		sw.stats.DropNoRoute++
	}
	bufpool.Put(frame)
}

// ---- L4 load-balancer tier ----

// BackendState is the service-side lifecycle of one farm machine.
type BackendState int

// Backend states.
const (
	// BackendActive accepts new flows and serves pinned ones.
	BackendActive BackendState = iota
	// backendDraining is removed from new-flow placement; its pinned
	// flows keep forwarding until they finish — lazy termination, one
	// level up from the paper's replica drain (§3.4).
	backendDraining
	// BackendDown drops everything, pinned flows included — a dead
	// machine.
	BackendDown
)

// String names the backend state.
func (s BackendState) String() string {
	switch s {
	case BackendActive:
		return "active"
	case backendDraining:
		return "draining"
	case BackendDown:
		return "down"
	default:
		return fmt.Sprintf("BackendState(%d)", int(s))
	}
}

// L4Backend is one farm machine behind a service.
type L4Backend struct {
	Port  int // switch port the machine is attached to
	MAC   proto.MAC
	State BackendState
}

// L4ServiceConfig configures one virtual service.
type L4ServiceConfig struct {
	// Name labels the service in stats and traces.
	Name string
	// VIP is the service's virtual IP — the address clients connect to
	// and every backend answers from (DSR).
	VIP proto.Addr
	// VMAC is the virtual MAC clients resolve the VIP to.
	VMAC proto.MAC
}

// l4MaxFlows bounds a service's flow-pinning table. The oldest pin is
// evicted first, falling back to policy placement, which under a stable
// active set re-places the flow on the same backend.
const l4MaxFlows = 1 << 20

// L4Stats counts service activity.
type L4Stats struct {
	NewFlows      uint64 // flows pinned by policy placement
	Hits          uint64 // frames forwarded via an existing pin
	Evictions     uint64 // pins evicted by the table bound
	DropNoBackend uint64 // no active backend could take a new flow
	DropDown      uint64 // pinned backend is down
	DropBad       uint64 // frames to the VMAC that carry no usable flow
}

// L4Service is a running virtual service on a switch.
type L4Service struct {
	cfg L4ServiceConfig

	backends []L4Backend
	placer   steer.Placer

	flows     map[proto.Flow]int32
	flowOrder []proto.Flow
	flowHead  int
	maxFlows  int

	stats L4Stats
}

// AddService installs a virtual service on the switch. Backends are added
// with AddBackend; until the first active backend exists every new flow to
// the VIP is dropped.
func (sw *Switch) AddService(cfg L4ServiceConfig) (*L4Service, error) {
	for _, s := range sw.svcs {
		if s.cfg.VMAC == cfg.VMAC {
			return nil, fmt.Errorf("wire: switch %s already has a service (%s) on VMAC %v",
				sw.Name, s.cfg.Name, cfg.VMAC)
		}
	}
	svc := &L4Service{
		cfg: cfg,
		// Farm-level placement hashes over the active backends on a
		// private fixed-seed stream: QueueFor is a pure function of (hash,
		// active set), so placement is byte-identical between sequential
		// and PDES runs (a service never calls PickConnect).
		placer:   steer.NewHashPolicy(rand.New(rand.NewSource(1))),
		flows:    make(map[proto.Flow]int32),
		maxFlows: l4MaxFlows,
	}
	sw.svcs = append(sw.svcs, svc)
	return svc, nil
}

// Stats returns a snapshot of the service counters.
func (svc *L4Service) Stats() L4Stats { return svc.stats }

// AddBackend registers a farm machine (by switch port and MAC) as a
// backend in the given initial state and returns its backend index.
func (svc *L4Service) AddBackend(port int, mac proto.MAC, state BackendState) int {
	idx := len(svc.backends)
	svc.backends = append(svc.backends, L4Backend{Port: port, MAC: mac, State: state})
	svc.updateActive()
	return idx
}

// SetBackendState moves backend i to the given state and reinstalls the
// placement policy's active set. Pinned flows are never remapped: draining
// keeps forwarding them, down drops them.
func (svc *L4Service) SetBackendState(i int, state BackendState) {
	if svc.backends[i].State == state {
		return
	}
	svc.backends[i].State = state
	svc.updateActive()
}

// NumActive returns the number of backends accepting new flows.
func (svc *L4Service) NumActive() int { return len(svc.placer.Active()) }

func (svc *L4Service) updateActive() {
	active := make([]int, 0, len(svc.backends))
	for i := range svc.backends {
		if svc.backends[i].State == BackendActive {
			active = append(active, i)
		}
	}
	svc.placer.SetActive(active)
}

// route picks the backend for one frame addressed to the service VMAC,
// rewrites the frame's destination MAC to the backend's, and returns the
// egress port. ok is false when the frame must be dropped (counted).
func (svc *L4Service) route(frame []byte) (out int, ok bool) {
	flow, flowOK := parseFlowRaw(frame)
	if !flowOK || flow.Dst != svc.cfg.VIP {
		svc.stats.DropBad++
		return 0, false
	}
	bi, pinned := svc.flows[flow]
	if !pinned {
		b := svc.placer.QueueFor(flow.Hash())
		if b < 0 {
			svc.stats.DropNoBackend++
			return 0, false
		}
		bi = int32(b)
		svc.pin(flow, bi)
		svc.stats.NewFlows++
	} else {
		svc.stats.Hits++
	}
	be := &svc.backends[bi]
	if be.State == BackendDown {
		svc.stats.DropDown++
		return 0, false
	}
	copy(frame[0:6], be.MAC[:])
	return be.Port, true
}

// pin records a flow→backend pinning, evicting the oldest when full.
func (svc *L4Service) pin(flow proto.Flow, backend int32) {
	if len(svc.flows) >= svc.maxFlows {
		oldest := svc.flowOrder[svc.flowHead]
		svc.flowHead++
		delete(svc.flows, oldest)
		svc.stats.Evictions++
		if svc.flowHead*2 >= len(svc.flowOrder) {
			svc.flowOrder = svc.flowOrder[:copy(svc.flowOrder, svc.flowOrder[svc.flowHead:])]
			svc.flowHead = 0
		}
	}
	svc.flows[flow] = backend
	svc.flowOrder = append(svc.flowOrder, flow)
}

// parseFlowRaw extracts the 5-tuple from a raw Ethernet frame without
// decoding or validating it — the switch is forwarding hardware, not a
// protocol endpoint. ok is false for non-IPv4 or fragmented-beyond-header
// frames and for IP protocols without ports.
func parseFlowRaw(raw []byte) (proto.Flow, bool) {
	const ethLen = proto.EthernetHeaderLen
	if len(raw) < ethLen+proto.IPv4HeaderLen {
		return proto.Flow{}, false
	}
	if raw[12] != 0x08 || raw[13] != 0x00 { // EtherType IPv4
		return proto.Flow{}, false
	}
	ihl := int(raw[ethLen]&0x0f) * 4
	if ihl < proto.IPv4HeaderLen || len(raw) < ethLen+ihl+4 {
		return proto.Flow{}, false
	}
	var f proto.Flow
	f.Proto = proto.IPProto(raw[ethLen+9])
	copy(f.Src[:], raw[ethLen+12:ethLen+16])
	copy(f.Dst[:], raw[ethLen+16:ethLen+20])
	if f.Proto != proto.ProtoTCP && f.Proto != proto.ProtoUDP {
		return proto.Flow{}, false
	}
	// First fragment carries the ports; later fragments would need
	// reassembly state the switch does not keep.
	fragOff := (uint16(raw[ethLen+6])<<8 | uint16(raw[ethLen+7])) & 0x1fff
	if fragOff != 0 {
		return proto.Flow{}, false
	}
	tp := ethLen + ihl
	f.SrcPort = uint16(raw[tp])<<8 | uint16(raw[tp+1])
	f.DstPort = uint16(raw[tp+2])<<8 | uint16(raw[tp+3])
	return f, true
}
