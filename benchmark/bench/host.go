package bench

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"time"
)

// Host is recorded next to the numbers: two reports are only compared when
// their hosts match.
type Host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Kernel     string `json:"kernel"`
	// EnvCleared lists the engine-switch variables ClearEngineEnv unset, so
	// the benchmark always measures the default engine.
	EnvCleared []string `json:"env_cleared"`
	// CalibMS is a fixed spin loop's wall time taken before and after the
	// passes: the host's CPU speed while the numbers were taken. It does
	// not see contention in a shared host's memory system, which moves the
	// simulator by up to 40% (see the README's noise protocol).
	CalibMS [2]float64 `json:"host.calib_ms"`
}

// engineEnv are the environment hooks of the engine switches slated for
// removal; the benchmark never names the switches and clears their hooks.
var engineEnv = []string{"RC_SHARDS", "RC_NOPOOL"}

// ClearEngineEnv unsets the engine-switch variables (ProbeHost records
// which). Call it before anything touches the simulator.
func ClearEngineEnv() {
	for _, name := range engineEnv {
		os.Unsetenv(name)
	}
}

// ProbeHost describes the machine.
func ProbeHost() Host {
	return Host{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		EnvCleared: engineEnv,
	}
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var calibSink uint64

// Calibrate times a fixed spin loop (2^26 xorshift steps, no memory
// traffic) and returns the best of five in milliseconds.
func Calibrate() float64 {
	best := 0.0
	for i := 0; i < 5; i++ {
		x := uint64(0x9E3779B97F4A7C15)
		t := time.Now()
		for j := 0; j < 1<<26; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ms := float64(time.Since(t)) / 1e6
		calibSink += x
		if best == 0 || ms < best {
			best = ms
		}
	}
	return best
}
