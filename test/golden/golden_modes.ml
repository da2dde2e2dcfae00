(* Golden pin of every mode's simulated timing: the spec four at a small
   fixed size (n=16, iters=1, 8 PEs) under every Memsys mode on three
   machines — the uniform T3D, its crossbar, and the crossbar split into
   four coherence islands. golden_tables pins only SEQ/BASE/CCDP and
   golden_rivals only the flat hardware rivals; this is the one pin on
   INV, INC, HSCD and CLU cycles and counters, so any change to the
   memory system's timing fails the diff and must be acknowledged with
   dune promote. Cells run on a 4-job pool and are printed in cell
   order, so the output does not depend on the job count. *)

open Ccdp_core
open Ccdp_workloads
module Config = Ccdp_machine.Config
module Memsys = Ccdp_runtime.Memsys
module Interp = Ccdp_runtime.Interp

let machines =
  [
    ("t3d", Config.t3d);
    ("t3d-xbar", Config.t3d_xbar);
    ("cxl-4x16", Config.cxl_4x16);
  ]

let () =
  let cells =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun mode -> List.map (fun m -> (w, mode, m)) machines)
          Memsys.all_modes)
      (Suite.spec_four ~n:16 ~iters:1 ())
  in
  let results =
    Ccdp_exec.Pool.run ~jobs:4
      (fun _ ((w : Workload.t), mode, (_, machine)) ->
        Experiment.run_mode ~machine ~n_pes:8 mode w)
      cells
  in
  List.iter2
    (fun ((w : Workload.t), _, (mname, _)) r ->
      Format.printf "@[<v>== %s on %s ==@,%a@]@." w.Workload.name mname
        Interp.pp_result r)
    cells results
