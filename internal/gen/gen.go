// Package gen synthesizes fragmented-genome CSR workloads. The paper
// evaluated on conserved regions of real contig libraries (human/mouse,
// E. coli vs Salmonella); those data are not redistributable, so this
// package builds the closest synthetic equivalent: an ancestral sequence of
// conserved regions evolves into two species by deletion, segment inversion
// and translocation; each species is fragmented into contigs at random
// breakpoints; ortholog alignment scores carry multiplicative noise and
// spurious (paralog-like) alignments are injected. The generator returns
// the ground-truth layout so experiments can score order/orientation
// recovery — something real data cannot provide.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/symbol"
)

// Config parameterizes a synthetic workload.
type Config struct {
	// Seed drives all randomness; equal configs generate equal workloads.
	Seed int64
	// Regions is the number of conserved regions in the ancestor.
	Regions int
	// DeleteProb is the per-region, per-species loss probability.
	DeleteProb float64
	// Inversions is the number of segment inversions applied to species M.
	Inversions int
	// InversionLen is the maximum inverted segment length (regions).
	InversionLen int
	// Translocations is the number of segment moves applied to species M.
	Translocations int
	// MeanContig is the expected contig length in regions (geometric
	// fragmentation); min 1.
	MeanContig int
	// BaseScore is the mean ortholog alignment score.
	BaseScore float64
	// Noise is the relative score jitter in [0, 1).
	Noise float64
	// Spurious is the number of injected spurious alignment pairs.
	Spurious int
	// SpuriousScore caps the spurious scores (drawn uniformly below it).
	SpuriousScore float64
	// Canonical, when set, generates the instance over a shared canonical
	// alphabet and σ table (see NewCanonical) instead of a fresh per-instance
	// table: every instance of a batch then carries the *same* score.Table
	// pointer, so the batch pool's per-alphabet cache compiles (and
	// quantizes) σ exactly once for the whole workload. The canonical table
	// must cover at least Regions regions.
	Canonical *Canonical
}

// Canonical is a shared alphabet and σ table for a family of generated
// instances: ortholog scores for every ancestral region (drawn once from the
// canonical seed, jitter included) plus the spurious pairs. Instances
// generated against one Canonical differ in evolution and fragmentation but
// agree on symbols and scores — the "many instances, one σ" shape a serving
// workload has, which the batch pool's per-alphabet cache exploits.
type Canonical struct {
	Alpha   *symbol.Alphabet
	Sigma   *score.Table
	regions int
	hSyms   []symbol.Symbol
	mSyms   []symbol.Symbol
}

// Regions returns the number of ancestral regions the table covers.
func (c *Canonical) Regions() int { return c.regions }

// NewCanonical builds the shared alphabet/σ table for the configuration:
// scores for all cfg.Regions ortholog pairs and cfg.Spurious spurious pairs,
// drawn deterministically from cfg.Seed.
func NewCanonical(cfg Config) *Canonical {
	if cfg.Regions < 1 {
		cfg.Regions = 1
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	c := &Canonical{
		Alpha:   symbol.NewAlphabet(),
		Sigma:   score.NewTable(),
		regions: cfg.Regions,
		hSyms:   make([]symbol.Symbol, cfg.Regions),
		mSyms:   make([]symbol.Symbol, cfg.Regions),
	}
	for i := 0; i < cfg.Regions; i++ {
		c.hSyms[i] = c.Alpha.Intern(fmt.Sprintf("H%d", i))
		c.mSyms[i] = c.Alpha.Intern(fmt.Sprintf("M%d", i))
	}
	for i := 0; i < cfg.Regions; i++ {
		s := cfg.BaseScore * (1 + cfg.Noise*(2*r.Float64()-1))
		if s < 1 {
			s = 1
		}
		c.Sigma.Set(c.hSyms[i], c.mSyms[i], s)
	}
	for k := 0; k < cfg.Spurious; k++ {
		hi := r.Intn(cfg.Regions)
		mi := r.Intn(cfg.Regions)
		ms := c.mSyms[mi]
		if r.Intn(2) == 0 {
			ms = ms.Rev()
		}
		if c.Sigma.Score(c.hSyms[hi], ms) == 0 && cfg.SpuriousScore > 0 {
			c.Sigma.Set(c.hSyms[hi], ms, 1+r.Float64()*(cfg.SpuriousScore-1))
		}
	}
	return c
}

// DefaultConfig returns a small but structured workload configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		Regions:        40,
		DeleteProb:     0.1,
		Inversions:     3,
		InversionLen:   6,
		Translocations: 1,
		MeanContig:     5,
		BaseScore:      10,
		Noise:          0.3,
		Spurious:       10,
		SpuriousScore:  4,
	}
}

// Preset returns a named workload configuration. The genome presets model
// fragmented whole-genome comparisons: thousands of conserved regions in
// short contigs, heavy rearrangement, and a sizable spurious-pair floor.
// They use a shared canonical alphabet (one σ table per preset family) so a
// batch of instances at different seeds exercises the same score model.
//
//	genome-small — 5,000 regions; the CI-sized seeded benchmark target.
//	genome-large — 50,000 regions; offline only (run with seeded mode;
//	               σ compiles to ~10 MB, about twice that in int32 score
//	               mode).
//
// Unknown names return ok == false.
func Preset(name string, seed int64) (Config, bool) {
	cfg := DefaultConfig(seed)
	switch name {
	case "genome-small":
		cfg.Regions = 5000
	case "genome-large":
		cfg.Regions = 50000
	default:
		return Config{}, false
	}
	scale := cfg.Regions / 5000
	cfg.MeanContig = 6
	cfg.Inversions = 40 * scale
	cfg.InversionLen = 25
	cfg.Translocations = 8 * scale
	cfg.Spurious = 500 * scale
	cfg.Canonical = NewCanonical(cfg)
	return cfg, true
}

// PresetNames lists the named presets accepted by Preset, for flag help.
func PresetNames() []string { return []string{"genome-small", "genome-large"} }

// Workload is a generated instance plus its ground truth.
type Workload struct {
	Instance *core.Instance
	// TrueH and TrueM are the ground-truth layouts: contigs in genomic
	// order, forward orientation (contigs were cut from the genomes
	// left-to-right).
	TrueH, TrueM []core.OrientedFrag
	// OrthologTotal is the total score of all surviving ortholog pairs —
	// an upper bound on any solution restricted to ortholog matches.
	OrthologTotal float64
	// TrueLayoutScore is the alignment score of the ground-truth conjecture
	// pair — a lower bound on the CSR optimum.
	TrueLayoutScore float64
}

// Generate builds a workload from the configuration.
func Generate(cfg Config) *Workload {
	r := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Regions < 1 {
		cfg.Regions = 1
	}
	if cfg.MeanContig < 1 {
		cfg.MeanContig = 1
	}
	var al *symbol.Alphabet
	var tb *score.Table
	var hSyms, mSyms []symbol.Symbol
	if c := cfg.Canonical; c != nil {
		if c.regions < cfg.Regions {
			cfg.Regions = c.regions // the shared table bounds the region count
		}
		al, tb = c.Alpha, c.Sigma
		hSyms, mSyms = c.hSyms[:cfg.Regions], c.mSyms[:cfg.Regions]
	} else {
		al = symbol.NewAlphabet()
		tb = score.NewTable()
		// Ancestral regions; species-specific symbols so σ is a genuine
		// cross-species table.
		hSyms = make([]symbol.Symbol, cfg.Regions)
		mSyms = make([]symbol.Symbol, cfg.Regions)
		for i := 0; i < cfg.Regions; i++ {
			hSyms[i] = al.Intern(fmt.Sprintf("H%d", i))
			mSyms[i] = al.Intern(fmt.Sprintf("M%d", i))
		}
	}

	// Species H keeps ancestral order; species M evolves.
	var hGenome, mGenome symbol.Word
	present := make([][2]bool, cfg.Regions)
	for i := 0; i < cfg.Regions; i++ {
		if r.Float64() >= cfg.DeleteProb {
			hGenome = append(hGenome, hSyms[i])
			present[i][0] = true
		}
		if r.Float64() >= cfg.DeleteProb {
			mGenome = append(mGenome, mSyms[i])
			present[i][1] = true
		}
	}
	// Inversions on M.
	for k := 0; k < cfg.Inversions && len(mGenome) > 1; k++ {
		l := 1 + r.Intn(max(1, cfg.InversionLen))
		if l > len(mGenome) {
			l = len(mGenome)
		}
		at := r.Intn(len(mGenome) - l + 1)
		seg := symbol.Word(mGenome[at : at+l]).Rev()
		copy(mGenome[at:at+l], seg)
	}
	// Translocations on M: cut a segment, reinsert elsewhere.
	for k := 0; k < cfg.Translocations && len(mGenome) > 2; k++ {
		l := 1 + r.Intn(max(1, cfg.InversionLen))
		if l >= len(mGenome) {
			continue
		}
		at := r.Intn(len(mGenome) - l + 1)
		seg := append(symbol.Word(nil), mGenome[at:at+l]...)
		rest := append(append(symbol.Word(nil), mGenome[:at]...), mGenome[at+l:]...)
		pos := r.Intn(len(rest) + 1)
		mGenome = append(append(append(symbol.Word(nil), rest[:pos]...), seg...), rest[pos:]...)
	}

	// Ortholog scores for regions surviving in both species. With a
	// canonical table the scores (and spurious pairs) were drawn once from
	// the canonical seed; per-instance randomness drives structure only.
	ortho := 0.0
	if cfg.Canonical != nil {
		for i := 0; i < cfg.Regions; i++ {
			if present[i][0] && present[i][1] {
				ortho += tb.Score(hSyms[i], mSyms[i])
			}
		}
	} else {
		for i := 0; i < cfg.Regions; i++ {
			if present[i][0] && present[i][1] {
				s := cfg.BaseScore * (1 + cfg.Noise*(2*r.Float64()-1))
				if s < 1 {
					s = 1
				}
				tb.Set(hSyms[i], mSyms[i], s)
				ortho += s
			}
		}
		// Spurious alignments between random cross pairs.
		for k := 0; k < cfg.Spurious; k++ {
			hi := r.Intn(cfg.Regions)
			mi := r.Intn(cfg.Regions)
			ms := mSyms[mi]
			if r.Intn(2) == 0 {
				ms = ms.Rev()
			}
			if tb.Score(hSyms[hi], ms) == 0 && cfg.SpuriousScore > 0 {
				tb.Set(hSyms[hi], ms, 1+r.Float64()*(cfg.SpuriousScore-1))
			}
		}
	}

	in := &core.Instance{
		Name:  fmt.Sprintf("gen-%d", cfg.Seed),
		Alpha: al,
		Sigma: tb,
	}
	w := &Workload{Instance: in, OrthologTotal: ortho}
	// Fragment both genomes into contigs.
	for fi, frag := range fragment(r, hGenome, cfg.MeanContig) {
		in.H = append(in.H, core.Fragment{Name: fmt.Sprintf("h%d", fi), Regions: frag})
		w.TrueH = append(w.TrueH, core.OrientedFrag{Frag: fi})
	}
	for fi, frag := range fragment(r, mGenome, cfg.MeanContig) {
		in.M = append(in.M, core.Fragment{Name: fmt.Sprintf("m%d", fi), Regions: frag})
		w.TrueM = append(w.TrueM, core.OrientedFrag{Frag: fi})
	}
	w.TrueLayoutScore = align.Score(hGenome, mGenome, tb)
	return w
}

// fragment splits a genome into contigs with geometric lengths.
func fragment(r *rand.Rand, genome symbol.Word, mean int) []symbol.Word {
	var out []symbol.Word
	var cur symbol.Word
	for _, s := range genome {
		cur = append(cur, s)
		if r.Float64() < 1/float64(mean) {
			out = append(out, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}
