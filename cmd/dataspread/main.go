// Command dataspread is an interactive shell over a DataSpread workbook: a
// spreadsheet you type cell edits and formulas into, backed by the embedded
// relational engine, with DBSQL/DBTABLE, SQL, import/export and window
// panning available from the prompt. It runs entirely on the public
// dataspread package — the same surface any embedding program uses.
//
// Commands:
//
//	set <addr> <input>      enter a literal or =formula (incl. DBSQL/DBTABLE)
//	get <addr>              print one cell
//	show [range]            print the visible window (or a range)
//	sql <statement>         run SQL ('?' placeholders need the API; RANGEVALUE/RANGETABLE allowed)
//	export <range> <table>  create a table from a range (Figure 2b)
//	import <addr> <table>   bind a table at a cell (DBTABLE)
//	scroll <addr>           move the window (fetch-on-demand panning)
//	sheet <name>            switch/create a sheet
//	tables                  list tables
//	checkpoint              compact the workbook file and truncate the WAL
//	help, quit
//
// With -file <path> the workbook is durable: every command is appended to
// <path>.wal before it returns and the state is recovered on the next start.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/dataspread/dataspread"
)

func main() {
	file := flag.String("file", "", "durable workbook file (WAL kept at <file>.wal)")
	flag.Parse()
	var db *dataspread.DB
	if *file != "" {
		var err error
		db, err = dataspread.OpenFile(*file, dataspread.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		for _, err := range db.RecoveryErrors() {
			fmt.Fprintln(os.Stderr, "recovery:", err)
		}
		defer db.Close()
	} else {
		db = dataspread.New(dataspread.Options{})
	}
	ctx := context.Background()
	current := "Sheet1"
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1024*1024), 1024*1024)
	fmt.Println("DataSpread shell — type 'help' for commands")
	prompt := func() { fmt.Printf("%s> ", current) }
	prompt()
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line == "" {
			prompt()
			continue
		}
		cmd, rest := splitCommand(line)
		switch strings.ToLower(cmd) {
		case "quit", "exit":
			return
		case "help":
			fmt.Println("set <addr> <input> | get <addr> | show [range] | sql <stmt> | export <range> <table> | import <addr> <table> | scroll <addr> | sheet <name> | tables | checkpoint | quit")
		case "checkpoint":
			if err := db.Checkpoint(); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
		case "set":
			addr, input := splitCommand(rest)
			wait, err := db.SetCell(current, addr, input)
			if err != nil {
				fmt.Println("error:", err)
			} else {
				wait()
				fmt.Println("ok")
			}
		case "get":
			v, err := db.Get(current, rest)
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println(v.String())
			}
		case "show":
			var vals [][]dataspread.Value
			var err error
			if rest == "" {
				vals, err = db.VisibleValues(current)
			} else {
				vals, err = db.GetRange(current, rest)
			}
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			printGrid(vals)
		case "sql":
			res, err := db.Exec(ctx, rest)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			if len(res.Columns) > 0 {
				fmt.Println(strings.Join(res.Columns, "\t"))
				for _, row := range res.Rows {
					parts := make([]string, len(row))
					for i, v := range row {
						parts[i] = v.String()
					}
					fmt.Println(strings.Join(parts, "\t"))
				}
			} else {
				fmt.Printf("ok (%d rows affected)\n", res.RowsAffected)
			}
		case "export":
			rng, table := splitCommand(rest)
			if err := db.ExportRange(current, rng, table, dataspread.ExportOptions{}); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("created table %s from %s\n", table, rng)
			}
		case "import":
			addr, table := splitCommand(rest)
			if err := db.ImportTable(current, addr, table); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("bound table %s at %s\n", table, addr)
			}
		case "scroll":
			if err := db.ScrollTo(current, rest); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
		case "sheet":
			if rest == "" {
				fmt.Println(strings.Join(db.SheetNames(), ", "))
				break
			}
			if err := db.AddSheet(rest); err != nil {
				fmt.Println("error:", err)
				break
			}
			current = rest
		case "tables":
			for _, t := range db.Tables() {
				cols := make([]string, len(t.Columns))
				for i, c := range t.Columns {
					cols[i] = fmt.Sprintf("%s %s", c.Name, c.Type)
				}
				fmt.Printf("%s(%s)\n", t.Name, strings.Join(cols, ", "))
			}
		default:
			fmt.Println("unknown command; type 'help'")
		}
		prompt()
	}
}

func splitCommand(s string) (string, string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i:])
}

func printGrid(vals [][]dataspread.Value) {
	for _, row := range vals {
		empty := true
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
			if !v.IsEmpty() {
				empty = false
			}
		}
		if empty {
			continue
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
}
