package experiments

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// Table is one titled result of a study. Rows is a slice of structs whose
// exported fields are the columns, in declaration order; the header is the
// field's `col` tag, or its lower-cased name without one.
type Table struct {
	Title string
	Rows  any
}

// WriteTables renders tables as aligned plain text, one after another.
// Durations print as seconds; floats with four significant digits.
func WriteTables(w io.Writer, tables []Table) error {
	for _, t := range tables {
		rows := reflect.ValueOf(t.Rows)
		if rows.Kind() != reflect.Slice || rows.Type().Elem().Kind() != reflect.Struct {
			return fmt.Errorf("experiments: table %q: rows are %T, not a slice of structs", t.Title, t.Rows)
		}
		var fields []int
		var header []string
		typ := rows.Type().Elem()
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name := f.Tag.Get("col")
			if name == "" {
				name = strings.ToLower(f.Name)
			}
			fields = append(fields, i)
			header = append(header, name)
		}
		fmt.Fprintf(w, "\n=== %s ===\n", t.Title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, strings.Join(header, "\t"))
		cells := make([]string, len(fields))
		for r := 0; r < rows.Len(); r++ {
			for k, i := range fields {
				cells[k] = formatCell(rows.Index(r).Field(i).Interface())
			}
			fmt.Fprintln(tw, strings.Join(cells, "\t"))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func formatCell(v any) string {
	switch x := v.(type) {
	case time.Duration:
		return strconv.FormatFloat(x.Seconds(), 'g', 4, 64)
	case float64:
		return strconv.FormatFloat(x, 'g', 4, 64)
	default:
		return fmt.Sprint(v)
	}
}
