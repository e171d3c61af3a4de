package experiments

import (
	"neat/internal/report"
	"neat/internal/sim"
)

// fileSizes is the sweep of Figures 4 and 5 (1 B to 10 MB).
var fileSizes = []int{1, 10, 100, 1 << 10, 10 << 10, 100 << 10, 1 << 20, 10 << 20}

// fileSizePoint runs the Linux optimal configuration serving one file size
// and reports the measurement. Connection counts shrink for very large
// files to bound simulator memory (the server still saturates the link).
func fileSizePoint(o Options, size int) (Measurement, error) {
	conns := 96
	switch {
	case size >= 10<<20:
		conns = 2
	case size >= 1<<20:
		conns = 12
	case size >= 100<<10:
		conns = 24
	}
	if o.Quick {
		conns /= 2
		if conns == 0 {
			conns = 6
		}
	}
	b, err := NewBed(BedConfig{
		Seed: o.seed(), Machine: AMD,
		LinuxCores: 12, LinuxTuning: fullLinuxTuning,
		WebLocs:     coreRange(0, 12),
		ConnsPerGen: conns, ReqPerConn: 1000,
		FileSize: size, TSO: true,
		Timeout: 5 * sim.Second,
	})
	if err != nil {
		return Measurement{}, err
	}
	warm, window := o.warm(), o.window()
	switch {
	case size >= 10<<20:
		// A single 10 MB response takes hundreds of ms of link time per
		// connection: the window must cover several whole responses.
		warm, window = 3*warm, 12*window
	case size >= 1<<20:
		warm, window = 2*warm, 3*window
	}
	return b.Run(warm, window), nil
}

// Figure4 reproduces latency and total requests vs file size on the tuned
// Linux baseline. Paper: latency flat in the tens of ms for small files,
// rising dramatically between 100 KB and 1 MB as the link saturates, with
// the request count dropping accordingly.
func Figure4(o Options) *Result {
	res := &Result{Name: "Figure 4: latency and total requests vs file size (Linux optimal)"}
	fig := &report.Figure{Title: "Latency & requests vs requested file size",
		XLabel: "file size (bytes)", YLabel: "see series"}
	lat := fig.NewSeries("latency [ms]")
	reqs := fig.NewSeries("requests [kreq]")
	outs := RunParallel(len(fileSizes), o.Workers, func(i int) outcome {
		m, err := fileSizePoint(o, fileSizes[i])
		return outcome{m: m, err: err}
	})
	for i, size := range fileSizes {
		if outs[i].err != nil {
			res.Notef("%s: %v", report.Bytes(size), outs[i].err)
			continue
		}
		m := outs[i].m
		lat.Add(float64(size), float64(m.MeanLat)/float64(sim.Millisecond))
		reqs.Add(float64(size), float64(m.RawKRPS)*m.Window.Seconds())
	}
	res.Figures = append(res.Figures, fig)
	res.Notef("paper shape: latency rises sharply between 100K and 1M as the 10G link saturates")
	return res
}

// Figure5 reproduces throughput and request rate vs file size. Paper: the
// 10 Gb/s link becomes the bottleneck once the file size exceeds ≈7 KB;
// request rate falls hyperbolically past that point while throughput
// plateaus near line rate.
func Figure5(o Options) *Result {
	res := &Result{Name: "Figure 5: throughput and request rate vs file size (Linux optimal)"}
	fig := &report.Figure{Title: "Throughput & request rate vs requested file size",
		XLabel: "file size (bytes)", YLabel: "see series"}
	rate := fig.NewSeries("request rate [krps]")
	tput := fig.NewSeries("throughput [MB/s]")
	var crossover int
	outs := RunParallel(len(fileSizes), o.Workers, func(i int) outcome {
		m, err := fileSizePoint(o, fileSizes[i])
		return outcome{m: m, err: err}
	})
	for i, size := range fileSizes {
		if outs[i].err != nil {
			res.Notef("%s: %v", report.Bytes(size), outs[i].err)
			continue
		}
		m := outs[i].m
		rate.Add(float64(size), m.KRPS)
		tput.Add(float64(size), m.MBps)
		// Detect the size where the link rather than the CPU limits the
		// rate (payload throughput approaching the ~1.1 GB/s the 10G link
		// carries after header overheads).
		if crossover == 0 && m.MBps > 700 {
			crossover = size
		}
	}
	res.Figures = append(res.Figures, fig)
	if crossover > 0 {
		res.Notef("link saturation from %s (paper: bandwidth becomes the bottleneck past ≈7 KB)", report.Bytes(crossover))
	}
	res.Notef("paper shape: request rate ∝ 1/size once the 10 Gb/s link saturates")
	return res
}
