package main

import (
	"bufio"
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/sim"
)

// The fixtures travel inside the binary, so a run reads nothing from disk
// but what it was built from.
//
//go:embed testdata/eval-all.golden testdata/cells.golden testdata/fingerprints.json testdata/paper_table3.json
var embedded embed.FS

// rawFixtures are the committed fixture files: `nvbench -all -parallel 1`
// stdout, the whole cell-sweep universe with each cell's modeled cycles, the
// op fingerprints of app-steady and migrate-churn at the committed scales
// and seeds, and the paper's Table 3. Each workload parses the ones it
// checks against as part of its set-up.
type rawFixtures struct {
	evalAll, cells, fingerprints, paperTable3 []byte
}

func loadEmbedded() (rawFixtures, error) {
	var r rawFixtures
	for _, f := range []struct {
		name string
		dst  *[]byte
	}{
		{"eval-all.golden", &r.evalAll},
		{"cells.golden", &r.cells},
		{"fingerprints.json", &r.fingerprints},
		{"paper_table3.json", &r.paperTable3},
	} {
		b, err := embedded.ReadFile("testdata/" + f.name)
		if err != nil {
			return r, err
		}
		*f.dst = b
	}
	return r, nil
}

func fingerprintKey(scale float64, seed uint64) string {
	return strconv.FormatFloat(scale, 'g', -1, 64) + "/" + strconv.FormatUint(seed, 10)
}

// Names used in cells.golden for the spec dimensions.
var (
	ioModes = []experiment.IOMode{experiment.IOParavirt, experiment.IOPassthrough, experiment.IODVHVP, experiment.IODVH}
	guests  = []struct {
		name string
		kind experiment.GuestKind
	}{{"KVM", experiment.GuestKVM}, {"Xen", experiment.GuestXen}, {"HyperV", experiment.GuestHyperV}}
	cellKinds = []string{"Hypercall", "DevNotify", "ProgramTimer", "SendIPI", "timer-storm", "ipi-flood"}
)

// cell is one cell-sweep op: a stack spec (profile included) and the kind of
// run made on it (a Table 1 microbenchmark or a delivery storm), with the
// cycles the run must return.
type cell struct {
	spec   experiment.Spec
	kind   string
	cycles sim.Cycles
}

func guestName(k experiment.GuestKind) string {
	for _, g := range guests {
		if g.kind == k {
			return g.name
		}
	}
	return fmt.Sprintf("guest%d", int(k))
}

// key renders the cell's inputs as the first six fields of its golden line.
func (c cell) key() string {
	enl := "-"
	if c.spec.Enlightened {
		enl = "enlightened"
	}
	return fmt.Sprintf("%s %d %s %s %s %s", c.spec.Profile, c.spec.Depth, c.spec.IO, guestName(c.spec.Guest), enl, c.kind)
}

const cellsHeader = "# profile depth io guest enlightenment kind cycles\n"

func formatCells(cells []cell) []byte {
	var b bytes.Buffer
	b.WriteString(cellsHeader)
	for _, c := range cells {
		fmt.Fprintf(&b, "%s %d\n", c.key(), uint64(c.cycles))
	}
	return b.Bytes()
}

func parseCells(data []byte) ([]cell, error) {
	ioByName := map[string]experiment.IOMode{}
	for _, m := range ioModes {
		ioByName[m.String()] = m
	}
	guestByName := map[string]experiment.GuestKind{}
	for _, g := range guests {
		guestByName[g.name] = g.kind
	}
	kindOK := map[string]bool{}
	for _, k := range cellKinds {
		kindOK[k] = true
	}
	var cells []cell
	sc := bufio.NewScanner(bytes.NewReader(data))
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 7 {
			return nil, fmt.Errorf("line %d: want 7 fields, got %d", line, len(f))
		}
		depth, err1 := strconv.Atoi(f[1])
		cycles, err2 := strconv.ParseUint(f[6], 10, 64)
		io, ok1 := ioByName[f[2]]
		guest, ok2 := guestByName[f[3]]
		if err1 != nil || err2 != nil || !ok1 || !ok2 || !kindOK[f[5]] || (f[4] != "-" && f[4] != "enlightened") {
			return nil, fmt.Errorf("line %d: malformed cell %q", line, text)
		}
		cells = append(cells, cell{
			spec: experiment.Spec{
				Profile: f[0], Depth: depth, IO: io, Guest: guest, Enlightened: f[4] == "enlightened",
			},
			kind:   f[5],
			cycles: sim.Cycles(cycles),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("no cells")
	}
	return cells, nil
}

// nvbenchAll runs `nvbench -all -parallel 1` and returns its standard
// output.
func (c *config) nvbenchAll() ([]byte, error) {
	cmd := exec.Command(c.tool("nvbench"), "-all", "-parallel", "1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("nvbench -all: %w", err)
	}
	return out, nil
}

// writeFixtures regenerates every model-derived fixture into dir. The
// paper's Table 3 is an input, not an output, so it is left as committed.
func writeFixtures(dir string, r *runner) error {
	evalAll, err := r.nvbenchAll()
	if err != nil {
		return fmt.Errorf("eval-all.golden: %w", err)
	}
	cells := cellUniverse()
	if err := runCells(cells, r.width); err != nil {
		return fmt.Errorf("cells.golden: %w", err)
	}
	fps, err := generateFingerprints(r, fingerprintScales)
	if err != nil {
		return fmt.Errorf("fingerprints.json: %w", err)
	}
	fpsJSON, err := json.MarshalIndent(fps, "", "  ")
	if err != nil {
		return err
	}
	for name, data := range map[string][]byte{
		"eval-all.golden":   evalAll,
		"cells.golden":      formatCells(cells),
		"fingerprints.json": append(fpsJSON, '\n'),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
