package main

import (
	"errors"
	"net/http"
	"testing"
)

// Refusals (429 shed, 503 queue timeout) are errors, and every attempt —
// refused or not — is in the denominator.
func TestErrorRatioCountsRefusals(t *testing.T) {
	var c tally
	for i := 0; i < 3; i++ {
		c.addHTTP(http.StatusOK, nil)
	}
	c.addHTTP(http.StatusTooManyRequests, nil)
	c.addHTTP(http.StatusServiceUnavailable, nil)
	c.addHTTP(http.StatusInternalServerError, nil)
	c.addHTTP(0, errors.New("connection reset"))
	c.addCheck(false)
	if c.Refused != 2 || c.Failed != 2 || c.Wrong != 1 || c.OK != 3 {
		t.Fatalf("tally %+v", c)
	}
	if c.attempted() != 8 || c.errors() != 5 {
		t.Fatalf("attempted %d errors %d, want 8 and 5", c.attempted(), c.errors())
	}
	if got := c.errorRatio(); got != 5.0/8 {
		t.Fatalf("error ratio %v, want 5/8", got)
	}
	var none tally
	if none.errorRatio() != 0 {
		t.Fatal("error ratio of nothing attempted must be 0")
	}
}
