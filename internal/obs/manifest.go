package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Manifest is the per-run provenance record every lab CLI emits with
// -metrics out.json: enough environment to interpret (or distrust) the
// numbers, the exact flag set of the run, and the final metric
// snapshot. REPORT.md tables are folded from these by cmd/reportgen.
type Manifest struct {
	// Tool and Subcommand identify the producing binary ("scalab",
	// "tvla").
	Tool       string `json:"tool"`
	Subcommand string `json:"subcommand,omitempty"`
	// Seed is the experiment seed: the run replays bit-identically
	// from it (for any worker count), so the manifest doubles as a
	// reproduction recipe.
	Seed uint64 `json:"seed"`
	// Environment stamp.
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Flags is the full resolved flag set of the run (defaults
	// included), name → rendered value.
	Flags map[string]string `json:"flags,omitempty"`
	// Metrics is the registry snapshot at exit.
	Metrics Snapshot `json:"metrics"`
}

// NewManifest stamps a manifest for one CLI run: environment, the
// resolved flag set (fs may be nil), and the registry snapshot (reg
// may be nil — the manifest then records empty metrics, which is still
// a valid provenance record).
func NewManifest(tool, subcommand string, seed uint64, fs *flag.FlagSet, reg *Registry) Manifest {
	m := Manifest{
		Tool:       tool,
		Subcommand: subcommand,
		Seed:       seed,
		GitSHA:     GitSHA(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Metrics:    reg.Snapshot(),
	}
	if fs != nil {
		m.Flags = map[string]string{}
		fs.VisitAll(func(f *flag.Flag) {
			m.Flags[f.Name] = f.Value.String()
		})
	}
	return m
}

// Write serializes the manifest (stable, sorted-key JSON) to path.
func (m Manifest) Write(path string) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal manifest: %w", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("obs: write manifest: %w", err)
	}
	return nil
}

// ReadManifest loads and validates a manifest written by Write. It
// rejects files missing the required provenance keys so downstream
// folding (cmd/reportgen) fails loudly on truncated or foreign JSON.
func ReadManifest(path string) (*Manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("obs: parse manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("obs: manifest %s: %w", path, err)
	}
	return &m, nil
}

// Validate checks the required manifest keys are present.
func (m *Manifest) Validate() error {
	var missing []string
	if m.Tool == "" {
		missing = append(missing, "tool")
	}
	if m.GoVersion == "" {
		missing = append(missing, "go_version")
	}
	if m.GitSHA == "" {
		missing = append(missing, "git_sha")
	}
	if m.GoMaxProcs == 0 {
		missing = append(missing, "gomaxprocs")
	}
	if m.Metrics.Counters == nil && m.Metrics.Gauges == nil && m.Metrics.Histograms == nil {
		missing = append(missing, "metrics")
	}
	if len(missing) > 0 {
		return fmt.Errorf("missing required keys: %s", strings.Join(missing, ", "))
	}
	return nil
}

// GitSHA best-effort stamps the working-tree revision: the short HEAD
// SHA, "-dirty" suffixed when uncommitted changes are present, or
// "unknown" outside a git checkout. Every manifest and checkpoint
// header carries it.
func GitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if err := exec.Command("git", "diff", "--quiet", "HEAD").Run(); err != nil {
		sha += "-dirty"
	}
	return sha
}
