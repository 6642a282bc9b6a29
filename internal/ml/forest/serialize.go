package forest

import (
	"encoding/json"
	"fmt"
	"io"

	"droppackets/internal/ml/tree"
)

// model is the serialized forest layout.
type model struct {
	Version     int               `json:"version"`
	NumClasses  int               `json:"num_classes"`
	Trees       [][]tree.NodeSpec `json:"trees"`
	Importances []float64         `json:"importances"`
}

// modelVersion guards against decoding incompatible files.
const modelVersion = 1

// maxClasses bounds the class count Load accepts. The decoder gives a
// leaf saved without a distribution num_classes zeros, so an unbounded
// count in a corrupt file would turn a few bytes into gigabytes.
const maxClasses = 1 << 10

// Save writes the fitted forest as JSON.
func (f *Classifier) Save(w io.Writer) error {
	if len(f.trees) == 0 {
		return fmt.Errorf("forest: save before Fit")
	}
	m := model{Version: modelVersion, NumClasses: f.numClasses, Importances: f.importances}
	for i, t := range f.trees {
		spec, err := t.Encode()
		if err != nil {
			return fmt.Errorf("forest: tree %d: %w", i, err)
		}
		m.Trees = append(m.Trees, spec)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("forest: encoding model: %w", err)
	}
	return nil
}

// Load reads a forest saved by Save. The returned classifier predicts
// identically; it cannot be re-fitted incrementally.
func Load(r io.Reader) (*Classifier, error) {
	var m model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("forest: decoding model: %w", err)
	}
	if m.Version != modelVersion {
		return nil, fmt.Errorf("forest: model version %d, want %d", m.Version, modelVersion)
	}
	if m.NumClasses < 2 || m.NumClasses > maxClasses || len(m.Trees) == 0 {
		return nil, fmt.Errorf("forest: malformed model (%d classes, %d trees)", m.NumClasses, len(m.Trees))
	}
	f := &Classifier{numClasses: m.NumClasses, importances: m.Importances}
	for i, spec := range m.Trees {
		t, err := tree.DecodeClassifier(spec, m.NumClasses)
		if err != nil {
			return nil, fmt.Errorf("forest: tree %d: %w", i, err)
		}
		f.trees = append(f.trees, t)
	}
	if f.importances == nil {
		f.importances = make([]float64, 0)
	}
	return f, nil
}
