package api

import (
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// A malformed or out-of-range query parameter is a 400 "param" naming
// the parameter, the rejected value and the accepted form, never a 500
// (internal/server/query_params_test.go). Like ReadBody, a parser
// answers the refusal itself and reports false.

// BadParam refuses the request for its name parameter with the typed 400.
func BadParam(w http.ResponseWriter, name, msg string) {
	WriteError(w, http.StatusBadRequest, "param", fmt.Sprintf("parameter %q: %s", name, msg))
}

// MaxTopN is the largest n /v1/hotpcs serves.
const MaxTopN = 1000

// TopN parses /v1/hotpcs' n: 1 to MaxTopN, 10 when absent.
func TopN(w http.ResponseWriter, r *http.Request) (int, bool) {
	v := r.URL.Query().Get("n")
	if v == "" {
		return 10, true
	}
	n, err := strconv.Atoi(v)
	switch {
	case err != nil:
		BadParam(w, "n", fmt.Sprintf("%q is not an integer", v))
	case n < 1 || n > MaxTopN:
		BadParam(w, "n", fmt.Sprintf("%d out of range [1,%d]", n, MaxTopN))
	default:
		return n, true
	}
	return 0, false
}

// BoolParam parses a boolean parameter ("true"/"false"/"1"/"0"),
// returning def when absent.
func BoolParam(w http.ResponseWriter, r *http.Request, name string, def bool) (bool, bool) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, true
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		BadParam(w, name, fmt.Sprintf("%q is not a boolean (true/false)", v))
		return false, false
	}
	return b, true
}

// DurationParam parses a positive duration parameter: a Go duration
// string ("30s", "1m30s") or a bare number of seconds ("30"). Returns 0
// when absent.
func DurationParam(w http.ResponseWriter, r *http.Request, name string) (time.Duration, bool) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, true
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		secs, serr := strconv.Atoi(v)
		if serr != nil {
			BadParam(w, name, fmt.Sprintf("%q is not a duration (try 30s, 1m, or a number of seconds)", v))
			return 0, false
		}
		d = time.Duration(secs) * time.Second
	}
	if d <= 0 {
		BadParam(w, name, fmt.Sprintf("%v must be positive", d))
		return 0, false
	}
	return d, true
}
