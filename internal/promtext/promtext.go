// Package promtext writes the flat Prometheus-style text hetmemd
// serves at /v1/metrics: one `name{key="value",...} value` line per
// series. Each line is built with strconv appends in one reused buffer
// and handed to the sink in one Write; fmt.Fprintf paid about four
// allocations a line, and a daemon's render is a few hundred lines.
// The bytes are exactly what `%q` labels and `%d`/`%g` values print.
package promtext

import (
	"io"
	"strconv"
)

// Writer renders series to an io.Writer. Start each line with Series,
// add its labels, and end it with one of the value methods, which
// writes it out. Write errors are dropped: the metrics sinks are
// in-memory buffers.
type Writer struct {
	w      io.Writer
	line   []byte
	labels bool // the line has an open label block
}

// NewWriter returns a Writer rendering to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, line: make([]byte, 0, 128)}
}

// Series starts a line for the series name.
func (t *Writer) Series(name string) *Writer {
	t.line = append(t.line[:0], name...)
	t.labels = false
	return t
}

// Label adds key="value" to the line's label block, quoting value.
func (t *Writer) Label(key, value string) *Writer {
	if t.labels {
		t.line = append(t.line, ',')
	} else {
		t.line = append(t.line, '{')
		t.labels = true
	}
	t.line = append(t.line, key...)
	t.line = append(t.line, '=')
	t.line = strconv.AppendQuote(t.line, value)
	return t
}

// Uint ends the line with an unsigned value.
func (t *Writer) Uint(v uint64) { t.write(strconv.AppendUint(t.value(), v, 10)) }

// Int ends the line with a signed value.
func (t *Writer) Int(v int64) { t.write(strconv.AppendInt(t.value(), v, 10)) }

// Float ends the line with v in its shortest %g form.
func (t *Writer) Float(v float64) { t.write(strconv.AppendFloat(t.value(), v, 'g', -1, 64)) }

// value closes the label block and returns the line ready for its value.
func (t *Writer) value() []byte {
	if t.labels {
		t.line = append(t.line, '}')
	}
	return append(t.line, ' ')
}

func (t *Writer) write(line []byte) {
	t.line = append(line, '\n')
	t.w.Write(t.line)
}
