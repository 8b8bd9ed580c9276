package clusterdrop

// routes.go is the third strict file: the one writer of every answer a
// daemon serves lives there, and an answer whose encoding error is
// dropped is a reply lost without a trace.

import (
	"encoding/json"
	"net/http"
)

func badAnswer(w http.ResponseWriter, v view) {
	json.NewEncoder(w).Encode(v) // want `error result of json.Encoder.Encode discarded .call used as a statement.`
}

func goodAnswer(w http.ResponseWriter, v view) error {
	return json.NewEncoder(w).Encode(v)
}
