package main

import "net/http"

// tally counts operation outcomes against the number attempted. Refused
// requests (HTTP 429 shed, 503 queue timeout) count as errors: a user
// who was turned away was not served.
type tally struct {
	OK      int // answered (and, where checked, correct)
	Failed  int // transport error, timeout or any other non-200 status
	Refused int // 429 or 503
	Wrong   int // answered with rows that differ from the oracle
}

// addHTTP records one request by its status; err is a transport error.
func (t *tally) addHTTP(status int, err error) {
	switch {
	case err != nil:
		t.Failed++
	case status == http.StatusOK:
		t.OK++
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		t.Refused++
	default:
		t.Failed++
	}
}

// addErr records one in-process call by its error.
func (t *tally) addErr(err error) {
	if err != nil {
		t.Failed++
	} else {
		t.OK++
	}
}

// addCheck records one checked answer.
func (t *tally) addCheck(correct bool) {
	if correct {
		t.OK++
	} else {
		t.Wrong++
	}
}

func (t *tally) merge(o tally) {
	t.OK += o.OK
	t.Failed += o.Failed
	t.Refused += o.Refused
	t.Wrong += o.Wrong
}

func (t tally) attempted() int { return t.OK + t.Failed + t.Refused + t.Wrong }

func (t tally) errors() int { return t.Failed + t.Refused + t.Wrong }

// errorRatio is errors over attempted: failures, refusals and wrong
// answers alike, with every attempt in the denominator.
func (t tally) errorRatio() float64 {
	return ratio(float64(t.errors()), float64(t.attempted()))
}
