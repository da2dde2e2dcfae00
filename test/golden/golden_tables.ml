(* Golden-table pin: renders the paper's Tables 1 and 2 for a small fixed
   configuration (spec four, n=16, iters=1, pes [1;4]) on stdout. The dune
   rule diffs this against golden_tables.expected — any change to the
   metric algebra, the simulated machine, or the table formatter fails the
   diff and must be acknowledged by promoting the new output
   (dune promote). Runs at -j4 so CI also re-proves the scheduler's
   determinism against the sequentially-generated expectation. *)

open Ccdp_core
open Ccdp_workloads

let () =
  let ws = Suite.spec_four ~n:16 ~iters:1 () in
  let spec = { Experiment.pes = [ 1; 4 ]; verify = true } in
  let rows = Experiment.evaluate ~jobs:4 ~spec ws in
  let ppf = Format.std_formatter in
  Experiment.print_tbl ppf (Experiment.table1 rows);
  Experiment.print_tbl ppf (Experiment.table2 rows);
  Experiment.csv_rows ppf rows;
  Format.pp_print_flush ppf ()
