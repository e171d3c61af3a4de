package stack

import "neat/internal/sim"

// Costs is the per-operation cycle budget of stack components. The defaults
// are calibrated in internal/experiments/calibrate.go so that one
// single-component replica on a 1.9 GHz core saturates at roughly the
// request rate the paper's Figure 7 shows; see that file for the
// derivations. All values are cycles.
type Costs struct {
	FilterCheck  int64 // packet filter rule evaluation per packet
	IPIn         int64 // IP input path per packet
	IPOut        int64 // IP output path per packet
	TCPSegIn     int64 // TCP segment processing (demux + state machine)
	TCPSegOut    int64 // TCP segment build + checksum
	TCPConnSetup int64 // PCB allocation on SYN / connect
	UDPIn        int64
	UDPOut       int64
	SockOp       int64 // socket control-plane operation
	SockEvent    int64 // posting an event to an application channel
	TimerOp      int64 // timer bookkeeping per firing
}

// DefaultCosts returns the calibrated default cycle costs.
func DefaultCosts() Costs {
	return Costs{
		FilterCheck:  300,
		IPIn:         900,
		IPOut:        1100,
		TCPSegIn:     2600,
		TCPSegOut:    2200,
		TCPConnSetup: 3500,
		UDPIn:        900,
		UDPOut:       900,
		SockOp:       1200,
		SockEvent:    600,
		TimerOp:      400,
	}
}

// opCosts is the cycle table the hosts of one replica or engine set charge,
// fixed at construction. A NEaT replica charges its Costs as configured; the
// Linux baseline derives every value from its own kernel table.
type opCosts struct {
	Costs
	connect int64  // an active open (OpConnect)
	lock    int64  // one locked operation on shared state; 0 in NEaT
	locked  uint64 // locked operations charged so far
}

// chargeLocked bills c cycles of work on shared stack state plus its lock.
func (k *opCosts) chargeLocked(ctx *sim.Context, c int64) {
	k.locked++
	ctx.Charge(c + k.lock)
}
