package planner

import (
	"net/http"

	"repro/internal/obs"
)

// PlanPath is the planner endpoint's route on the shared observability
// mux.
const PlanPath = "/api/v1/plan"

// planPayload is the /api/v1/plan response body.
type planPayload struct {
	Policy Policy `json:"policy"`
	// Recommendation is the current planning position; null before the
	// first planning cycle completes.
	Recommendation *Recommendation `json:"recommendation"`
	// History lists emitted actions, oldest first.
	History []Action `json:"history"`
}

// Handler serves the planner's policy, current recommendation and
// action history as JSON.
func Handler(p *Planner) http.Handler {
	return obs.JSONHandler(func(*http.Request) any {
		payload := planPayload{Policy: p.Policy(), History: p.History()}
		if rec, ok := p.Recommendation(); ok {
			payload.Recommendation = &rec
		}
		if payload.History == nil {
			payload.History = []Action{}
		}
		return payload
	})
}
