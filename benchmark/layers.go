package main

import (
	"fmt"
	"time"

	"neat/internal/proto"
	"neat/internal/sim"
)

// The layer drivers: loops that time calls into one layer's exported
// functions with everything around it stubbed, at the parameters of the
// workload they are reported for. They answer "what does this layer cost
// per call here", which the CPU profile's host_share cannot: a share says
// where time went, a driver says whether a call got cheaper.
//
// A driver's figure is host nanoseconds per call (median of three rounds)
// and includes the stub's own few nanoseconds; compare it with itself
// across commits, not across layers.

// layerParams are the workload parameters the layer drivers run at.
type layerParams struct {
	payload      int      // TCP payload bytes of the workload's typical frame
	conns        int      // connection-table size per engine
	timers       int      // live-timer population (taken from the workload's own run)
	timerHorizon sim.Time // how far ahead that population's deadlines lie
	replicas     int      // active set the placer picks from
	backends     int      // farm members behind a VIP
	quick        bool     // smoke test: a fiftieth of the iterations, one round
}

// scaled is the iteration count n, cut down for the smoke test.
func (p layerParams) scaled(n int) int {
	if p.quick {
		return max(1, n/50)
	}
	return n
}

// Driver populations are capped so the traced pass stays inside its time
// budget; the conn_scale table (100 000) is driven at the cap.
const (
	maxDriverConns  = 50_000
	maxDriverTimers = 100_000
)

// driver is one timed loop: it returns host ns per call.
type driver struct {
	metric string
	run    func(p layerParams) (float64, error)
}

// runDrivers runs every layer driver at p, recording one harness span
// each, and returns the figures by metric name plus what went wrong.
func runDrivers(workload string, p layerParams, spans *spanLog, parent int) (map[string]float64, []string) {
	p.conns = max(1, min(p.conns, maxDriverConns))
	p.timers = max(1, min(p.timers, maxDriverTimers))
	p.replicas = max(1, p.replicas)
	p.backends = max(1, p.backends)
	out := map[string]float64{}
	var problems []string
	root := spans.begin(workload, "layer drivers", parent)
	defer spans.end(root)
	for _, d := range drivers {
		sp := spans.begin(workload, "driver "+d.metric, root)
		var rounds []float64
		for i := 0; i < 3 && !(p.quick && i > 0); i++ {
			ns, err := d.run(p)
			if err != nil {
				problems = append(problems, fmt.Sprintf("driver %s: %v", d.metric, err))
				break
			}
			rounds = append(rounds, ns)
		}
		spans.end(sp)
		out[d.metric] = median(rounds)
	}
	sp := spans.begin(workload, "driver tcpeng", root)
	if err := tcpDrivers(p, out); err != nil {
		problems = append(problems, fmt.Sprintf("driver tcpeng: %v", err))
	}
	spans.end(sp)
	return out, problems
}

var drivers = []driver{
	{"sim.schedule_ns", driveSchedule},
	{"sim.dispatch_ns", driveDispatch},
	{"sim.timer_rearm_ns", func(p layerParams) (float64, error) { return driveTimers(p, true) }},
	{"sim.timer_arm_fire_ns", func(p layerParams) (float64, error) { return driveTimers(p, false) }},
	{"ipc.send_recv_ns", driveIPC},
	{"bufpool.getput_ns", driveBufpool},
	{"bufpool.arena_alloc_ns", driveArena},
	{"proto.decode_ns", driveDecode},
	{"proto.append_ns", driveAppend},
	{"proto.checksum_ns_per_kb", driveChecksum},
	{"wire.link_hop_ns", driveLink},
	{"wire.switch_forward_ns", func(p layerParams) (float64, error) { return driveSwitch(p, false) }},
	{"wire.switch_vip_ns", func(p layerParams) (float64, error) { return driveSwitch(p, true) }},
	{"nicdev.rx_ns", driveNICRx},
	{"nicdev.driver_ns_per_frame", driveNICDriver},
	{"ipeng.input_ns", driveIPInput},
	{"ipeng.output_ns", driveIPOutput},
	{"steer.pick_ns", driveSteer},
	{"socketlib.send_ns", driveSocketSend},
}

// perCall converts an elapsed time over n calls to ns per call.
func perCall(d time.Duration, n int) float64 {
	return float64(d.Nanoseconds()) / float64(n)
}

// Addresses shared by the network-facing drivers.
var (
	drvSrcIP  = proto.IPv4(10, 0, 1, 1)
	drvDstIP  = proto.IPv4(10, 0, 0, 1)
	drvSrcMAC = proto.MAC{2, 0, 0, 0, 1, 1}
	drvDstMAC = proto.MAC{2, 0, 0, 0, 0, 1}
)

// frameTemplates builds n serialized TCP data frames of one payload size
// on distinct flows (source ports), addressed to dstMAC.
func frameTemplates(n, payload int, dstMAC proto.MAC) [][]byte {
	body := make([]byte, payload)
	for i := range body {
		body[i] = byte(i)
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = proto.BuildTCP(
			proto.EthernetHeader{Dst: dstMAC, Src: drvSrcMAC, Type: proto.EtherTypeIPv4},
			proto.IPv4Header{TTL: 64, Src: drvSrcIP, Dst: drvDstIP},
			proto.TCPHeader{SrcPort: uint16(1024 + i%60000), DstPort: 80, Seq: 1, Ack: 1,
				Flags: proto.TCPAck | proto.TCPPsh, Window: 65535},
			body)
	}
	return out
}
