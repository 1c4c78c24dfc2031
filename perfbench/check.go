package main

import (
	"fmt"
	"sort"
	"strings"

	"probdb/internal/query"
	"probdb/internal/wire"
)

// answerCheck re-runs a sample of the workload's reads on the deployment
// and on an embedded query.DB holding the same rows (the load plus every
// committed write, no indexes, one node), and compares the two
// answers order-insensitively, row by rendered row. When some write's
// outcome is unknown (its ack was lost with the connection), rows the ops
// inserted are left out of the comparison on both sides.
func answerCheck(dep *deployment, load []string, led *ledger, reads []op) (int, error) {
	db := query.Open()
	for _, sql := range append(load[:len(load):len(load)], led.committed...) {
		if _, err := db.Exec(sql); err != nil {
			return 0, fmt.Errorf("check oracle %.60q: %w", sql, err)
		}
	}
	c, err := dial(dep.addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	skipInserted := len(led.uncertain) > 0
	for i, o := range reads {
		sql := o.sql[0]
		rp, err := c.exec(sql, true, 0, -1)
		if err != nil {
			return i, fmt.Errorf("check %q on the server: %w", sql, err)
		}
		qr, err := db.Exec(sql)
		if err != nil {
			return i, fmt.Errorf("check %q on the oracle: %w", sql, err)
		}
		if qr.Table == nil {
			// An aggregate: the answer is the distribution in the message.
			if rp.res.Message != qr.Message {
				return i, fmt.Errorf("check %q: server says %q, oracle %q", sql, rp.res.Message, qr.Message)
			}
			continue
		}
		want := wire.FromTable(qr.Table)
		got := render(rp.cols, rp.rows, skipInserted)
		exp := render(want.Cols, want.Rows, skipInserted)
		if d := diff(got, exp); d != "" {
			return i, fmt.Errorf("check %q: server and oracle disagree: %s", sql, d)
		}
	}
	return len(reads), nil
}

// render formats rows for an order-insensitive comparison. With
// skipInserted, rows whose rid (the first column) is an inserted one are
// dropped.
func render(cols []wire.Column, rows []wire.Row, skipInserted bool) []string {
	out := make([]string, 0, len(rows))
	for _, row := range rows {
		if skipInserted && len(row.Cells) > 0 && row.Cells[0].Kind == wire.CellValue {
			if v, ok := row.Cells[0].Value.AsFloat(); ok && v >= insertedRID {
				continue
			}
		}
		out = append(out, wire.RenderRow(cols, row))
	}
	sort.Strings(out)
	return out
}

func diff(got, want []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("row %s, want %s", strings.TrimSpace(got[i]), strings.TrimSpace(want[i]))
		}
	}
	return ""
}
