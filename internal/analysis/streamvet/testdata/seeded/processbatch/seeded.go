// Package seedprocessbatch carries exactly one poolretain violation: a batch
// operator that keeps the exchange batch it was handed in a struct field.
// The negative CI test asserts the analyzer still reports it, so an operator
// retaining its batch stays a build error.
package seedprocessbatch

type Event struct {
	Key       string
	Timestamp int64
}

type operator struct {
	last []Event
}

func (o *operator) ProcessBatch(batch []Event, _ any) error {
	o.last = batch // the seeded violation: batch retained past the call
	return nil
}
