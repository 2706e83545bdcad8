// Package workload generates the paper's synthetic workloads (§6
// "Simulation Settings"):
//
//   - a fixed population of objects (default 30,000) whose sizes follow a
//     power law within a predefined range;
//   - a fixed set of predefined requests (default 300) whose lengths follow
//     a power law in [100, 150] and whose member objects are chosen
//     uniformly at random (an object may appear in several requests);
//   - request popularities following Zipf: P_r = c·r^(−α).
//
// The paper's figures quote the resulting average request size ("around
// 213 GB"); TargetMeanRequestBytes rescales object sizes to hit such a
// target exactly, which is how the Figure 7 request-size sweep is driven.
package workload

import (
	"fmt"
	"math"

	"paralleltape/internal/dist"
	"paralleltape/internal/model"
	"paralleltape/internal/rng"
	"paralleltape/internal/units"
)

// Params configures generation. The zero value is not useful; start from
// Defaults().
type Params struct {
	NumObjects  int     // population size (paper: 30,000)
	NumRequests int     // predefined request count (paper: 300)
	MinObjSize  int64   // bytes, lower bound of the object-size power law
	MaxObjSize  int64   // bytes, upper bound
	ObjShape    float64 // power-law (bounded Pareto) shape for sizes
	MinReqLen   int     // min objects per request (paper: 100)
	MaxReqLen   int     // max objects per request (paper: 150)
	ReqLenShape float64 // power-law shape for request lengths
	Alpha       float64 // Zipf skew of request popularity (paper default 0.3)
}

// Defaults returns the paper's settings. The object-size bounds are chosen
// so the default mean request size lands near the ≈213 GB the paper quotes
// for Figure 6 (the paper does not publish its exact bounds or exponents;
// see DESIGN.md §6 "Substitutions"). With shape 1.1 on [256 MB, 16 GB] the
// mean object size is ≈1.7 GB, giving ≈209 GB per 120-object request, and
// 30,000 objects total ≈51 TB against 96 TB of raw tape capacity — the same
// "objects cannot all stay mounted" regime as the paper.
func Defaults() Params {
	return Params{
		NumObjects:  30000,
		NumRequests: 300,
		MinObjSize:  256 * units.MB,
		MaxObjSize:  16 * units.GB,
		ObjShape:    1.1,
		MinReqLen:   100,
		MaxReqLen:   150,
		ReqLenShape: 1.0,
		Alpha:       0.3,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.NumObjects <= 0:
		return fmt.Errorf("workload: NumObjects must be positive, got %d", p.NumObjects)
	case p.NumRequests <= 0:
		return fmt.Errorf("workload: NumRequests must be positive, got %d", p.NumRequests)
	case p.MinObjSize <= 0 || p.MaxObjSize < p.MinObjSize:
		return fmt.Errorf("workload: bad object size range [%d,%d]", p.MinObjSize, p.MaxObjSize)
	case p.ObjShape <= 0:
		return fmt.Errorf("workload: ObjShape must be positive, got %v", p.ObjShape)
	case p.MinReqLen <= 0 || p.MaxReqLen < p.MinReqLen:
		return fmt.Errorf("workload: bad request length range [%d,%d]", p.MinReqLen, p.MaxReqLen)
	case p.MaxReqLen > p.NumObjects:
		return fmt.Errorf("workload: MaxReqLen %d exceeds object population %d", p.MaxReqLen, p.NumObjects)
	case p.ReqLenShape < 0:
		return fmt.Errorf("workload: ReqLenShape must be non-negative, got %v", p.ReqLenShape)
	case p.Alpha < 0 || math.IsNaN(p.Alpha):
		return fmt.Errorf("workload: Alpha must be non-negative, got %v", p.Alpha)
	}
	return nil
}

// Generate builds a workload from p using the given random stream.
func Generate(p Params, src *rng.Source) (*model.Workload, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sizeDist, err := dist.NewBoundedPareto(float64(p.MinObjSize), float64(p.MaxObjSize), p.ObjShape)
	if err != nil {
		return nil, err
	}
	lenDist, err := dist.NewPowerLawInt(p.MinReqLen, p.MaxReqLen, p.ReqLenShape)
	if err != nil {
		return nil, err
	}
	zipf := dist.NewZipf(p.NumRequests, p.Alpha)

	w := &model.Workload{
		Objects:  make([]model.Object, p.NumObjects),
		Requests: make([]model.Request, p.NumRequests),
	}
	for i := range w.Objects {
		w.Objects[i] = model.Object{
			ID:   model.ObjectID(i),
			Size: sizeDist.SampleInt(src),
		}
	}
	for i := range w.Requests {
		nObj := lenDist.Sample(src)
		members := src.SampleInts(p.NumObjects, nObj)
		ids := make([]model.ObjectID, nObj)
		for j, m := range members {
			ids[j] = model.ObjectID(m)
		}
		w.Requests[i] = model.Request{
			ID:      model.RequestID(i),
			Prob:    zipf.Prob(i + 1), // request i has popularity rank i+1
			Objects: ids,
		}
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated workload invalid: %w", err)
	}
	return w, nil
}

// TargetMeanRequestBytes rescales all object sizes in w so that the
// popularity-weighted mean request size equals target bytes. Figure 7's
// sweep ("the request size is changed by changing the object size") and the
// fixed averages quoted for Figures 6/8/9 are produced this way. Returns
// the scale factor applied.
func TargetMeanRequestBytes(w *model.Workload, target float64) (float64, error) {
	if target <= 0 {
		return 0, fmt.Errorf("workload: target mean request size must be positive, got %v", target)
	}
	cur := w.MeanRequestBytes()
	if cur <= 0 {
		return 0, fmt.Errorf("workload: workload has zero mean request size")
	}
	factor := target / cur
	if err := w.ScaleObjectSizes(factor); err != nil {
		return 0, err
	}
	return factor, nil
}

// ReplaceAlpha returns a copy of w with request popularities reassigned
// from a Zipf distribution with the given alpha (same ranking: request ID i
// keeps rank i+1). The object membership of each request is unchanged, so
// Figure 6's alpha sweep isolates popularity skew from workload structure.
func ReplaceAlpha(w *model.Workload, alpha float64) (*model.Workload, error) {
	if alpha < 0 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("workload: alpha must be non-negative, got %v", alpha)
	}
	out := w.Clone()
	z := dist.NewZipf(len(out.Requests), alpha)
	for i := range out.Requests {
		out.Requests[i].Prob = z.Prob(i + 1)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// RequestStream draws simulated request arrivals from the workload's
// popularity distribution. The paper submits 200 requests one at a time
// (no queuing) and averages the metrics.
type RequestStream struct {
	w   *model.Workload
	d   *dist.Discrete
	src *rng.Source
}

// NewRequestStream builds a stream over w's requests using src.
func NewRequestStream(w *model.Workload, src *rng.Source) (*RequestStream, error) {
	weights := make([]float64, len(w.Requests))
	for i := range w.Requests {
		weights[i] = w.Requests[i].Prob
	}
	d, err := dist.NewDiscrete(weights)
	if err != nil {
		return nil, fmt.Errorf("workload: building request sampler: %w", err)
	}
	return &RequestStream{w: w, d: d, src: src}, nil
}

// Next draws the next request to submit.
func (s *RequestStream) Next() *model.Request {
	return &s.w.Requests[s.d.Sample(s.src)]
}

// Draw returns n request draws.
func (s *RequestStream) Draw(n int) []*model.Request {
	out := make([]*model.Request, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}
