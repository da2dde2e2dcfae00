(* ccdp: command-line driver for the CCDP reproduction.

   Subcommands: list, analyze, run, table1, table2, ablate, sweep,
   parallelize, profile, emit, load, check, fuzz, perf, bench. *)

open Cmdliner
open Ccdp_workloads

(* ---- exit codes ---- *)

(* one table for every subcommand: a wrong answer is a failed run, for
   scripts and CI as much as for the reader of the report *)
let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:
        "on a wrong answer: a run whose final memory differs from \
         sequential execution (the report says $(i,verification FAILED)), \
         an error-severity diagnostic from $(b,check), or a fuzz failure or \
         escape.";
    Cmd.Exit.info 2
      ~doc:
        "on a malformed CRAFT file, reported as \
         $(i,FILE:LINE:COL: error: MESSAGE) on standard error.";
    Cmd.Exit.info 124
      ~doc:
        "on a command-line error: an unknown workload, mode, machine or \
         study, a missing file, a rejected size, or a width or job count \
         out of range.";
    Cmd.Exit.info 125 ~doc:"on an unexpected internal error (a bug).";
  ]

let info name ~doc = Cmd.info name ~exits ~doc

(* ---- common options ---- *)

(* an integer out of range is a command-line error naming the option, not
   a crash further in *)
let int_conv ~what ~expected ok =
  let parse s =
    match int_of_string_opt s with
    | Some v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "invalid %s %S, expected %s" what s expected))
  in
  Arg.conv (parse, Format.pp_print_int)

let n_arg =
  Arg.(
    value
    & opt (int_conv ~what:"size" ~expected:"N >= 1" (fun n -> n >= 1)) 64
    & info [ "n" ] ~docv:"N" ~doc:"Problem size (matrix edge).")

let iters_arg =
  Arg.(
    value
    & opt (int_conv ~what:"iteration count" ~expected:"I >= 1" (fun i -> i >= 1)) 2
    & info [ "iters" ] ~docv:"I" ~doc:"Time-loop iterations (TOMCATV/SWIM/Jacobi).")

let width_conv = int_conv ~what:"width" ~expected:"P >= 1" (fun p -> p >= 1)

let pes_arg =
  Arg.(
    value
    & opt (list width_conv) [ 1; 2; 4; 8; 16; 32; 64 ]
    & info [ "pes" ] ~docv:"P,..." ~doc:"Machine widths for the tables.")

let pe_arg =
  Arg.(
    value & opt width_conv 16
    & info [ "p"; "pe" ] ~docv:"P" ~doc:"Machine width.")

let verify_arg =
  Arg.(
    value & opt bool true
    & info [ "verify" ] ~docv:"BOOL"
        ~doc:"Check every run against the sequential execution.")

(* bad input met while building from the arguments (an unknown workload
   name, a size a workload rejects, an unreadable file) is a command-line
   error, not an uncaught exception *)
let checked build =
  let run f =
    try Ok (f ()) with Invalid_argument msg | Sys_error msg -> Error (`Msg msg)
  in
  Term.(cli_parse_result (const run $ build))

(* builds only the named workload, so a size some other workload rejects
   cannot stop the run *)
let workload_term =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see $(b,ccdp list)).")
  in
  checked
    Term.(
      const (fun name n iters () -> Suite.find ~n ~iters name)
      $ name_arg $ n_arg $ iters_arg)

(* the whole suite, or the paper's four benchmarks when [four] holds *)
let suite_term four =
  checked
    Term.(
      const (fun four n iters () ->
          (if four then Suite.spec_four else Suite.all) ~n ~iters ())
      $ four $ n_arg $ iters_arg)

(* a CRAFT file that does not parse exits 2 with its located message *)
let read_craft path =
  try Ccdp_ir.Craft_parse.file path
  with Ccdp_ir.Craft_parse.Error (ln, col, msg) ->
    if col > 0 then Printf.eprintf "%s:%d:%d: error: %s\n" path ln col msg
    else Printf.eprintf "%s:%d: error: %s\n" path ln msg;
    exit 2

(* --mode and --machine parsing and help text are generated from the
   runtime's own mode list and the machine preset table, so a new mode or
   preset shows up here without touching the CLI. *)

let mode_of_string s =
  match Ccdp_runtime.Memsys.mode_of_string s with
  | Some m -> Some m
  | None -> (
      (* long-form spellings kept for compatibility *)
      match String.lowercase_ascii s with
      | "invalidate" -> Some Ccdp_runtime.Memsys.Invalidate
      | "incoherent" -> Some Ccdp_runtime.Memsys.Incoherent
      | "directory" -> Some Ccdp_runtime.Memsys.Directory
      | "clustered" -> Some Ccdp_runtime.Memsys.Clustered
      | _ -> None)

let mode_doc =
  String.concat "; "
    (List.map
       (fun m ->
         Printf.sprintf "$(b,%s): %s"
           (String.lowercase_ascii (Ccdp_runtime.Memsys.mode_name m))
           (Ccdp_runtime.Memsys.mode_describe m))
       Ccdp_runtime.Memsys.all_modes)
  ^ "."

let mode_conv =
  let parse s =
    match mode_of_string s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown mode %S (modes: %s)" s
               (String.concat ", "
                  (List.map
                     (fun m ->
                       String.lowercase_ascii (Ccdp_runtime.Memsys.mode_name m))
                     Ccdp_runtime.Memsys.all_modes))))
  in
  Arg.conv (parse, fun ppf m -> Format.fprintf ppf "%s" (Ccdp_runtime.Memsys.mode_name m))

let mode_arg =
  Arg.(
    value
    & opt mode_conv Ccdp_runtime.Memsys.Ccdp
    & info [ "mode" ] ~docv:"MODE" ~doc:mode_doc)

let machine_doc =
  Printf.sprintf
    "Machine preset: %s. Bare interconnect kind names (%s) select the \
     matching T3D variant."
    (String.concat " | "
       (List.map (fun n -> "$(b," ^ n ^ ")") Ccdp_machine.Config.preset_names))
    (String.concat "/" Ccdp_machine.Net.kind_names)

let machine_conv =
  let parse s =
    match Ccdp_machine.Config.preset_of_string s with
    | Some p -> Ok (s, p)
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown machine %S (presets: %s)" s
               (String.concat ", " Ccdp_machine.Config.preset_names)))
  in
  Arg.conv (parse, fun ppf (name, _) -> Format.fprintf ppf "%s" name)

let machine_arg =
  Arg.(
    value
    & opt machine_conv ("t3d", Ccdp_machine.Config.t3d)
    & info [ "machine" ] ~docv:"MACHINE" ~doc:machine_doc)

(* every worker is a domain, and the runtime refuses domains past
   [Pool.max_jobs]: a count out of range fails before any pool exists *)
let jobs_conv =
  let max = Ccdp_exec.Pool.max_jobs in
  int_conv ~what:"job count"
    ~expected:(Printf.sprintf "1 <= JOBS <= %d" max)
    (fun j -> j >= 1 && j <= max)

(* resolved through CCDP_JOBS and the domain count when not given; -j 1
   bypasses the domain pool entirely (results are identical either way) *)
let jobs_arg =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for independent simulator runs (default: \
           $(b,CCDP_JOBS) or the recommended domain count). Results are \
           deterministic for any value; 1 disables the pool.")

let resolve_jobs jobs = Ccdp_exec.Pool.resolve_jobs ?jobs ()

let print_verification program r =
  let v = Ccdp_runtime.Verify.against_sequential program ~init:(fun _ -> ()) r in
  Format.printf "%a@." Ccdp_runtime.Verify.pp_report v;
  if not v.Ccdp_runtime.Verify.ok then exit 1

(* ---- commands ---- *)

let list_cmd =
  let run =
    List.iter (fun (w : Workload.t) -> Printf.printf "%-10s %s\n" w.name w.descr)
  in
  Cmd.v (info "list" ~doc:"List available workloads")
    Term.(const run $ suite_term (Term.const false))

let analyze_cmd =
  let run (w : Workload.t) pe =
    let cfg = Ccdp_machine.Config.t3d ~n_pes:pe in
    let compiled = Ccdp_core.Pipeline.compile cfg w.program in
    Format.printf "%a@." Ccdp_core.Pipeline.report compiled
  in
  Cmd.v
    (info "analyze" ~doc:"Run the compiler pipeline and print its report")
    Term.(const run $ workload_term $ pe_arg)

let run_cmd =
  let run (w : Workload.t) pe mode (_, machine) verify jobs =
    (* here the pool shards the single run's epochs (Interp's intra-run
       parallelism) rather than a list of runs; the simulated result is
       identical for every job count *)
    let r =
      Ccdp_core.Experiment.run_mode ~machine ~jobs:(resolve_jobs jobs)
        ~n_pes:pe mode w
    in
    Format.printf "%a@." Ccdp_runtime.Interp.pp_result r;
    Format.printf "%a@." Ccdp_runtime.Metrics.pp (Ccdp_runtime.Metrics.of_result r);
    if verify then print_verification w.program r
  in
  Cmd.v
    (info "run"
       ~doc:
         "Execute one workload on the machine model and verify it against \
          sequential execution")
    Term.(
      const run $ workload_term $ pe_arg $ mode_arg $ machine_arg
      $ verify_arg $ jobs_arg)

let spec_four_arg =
  Arg.(
    value & flag
    & info [ "spec-four" ]
        ~doc:"Restrict to the paper's four benchmarks (MXM, VPENTA, TOMCATV, SWIM).")

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit machine-readable CSV instead.")

(* Tables 1 and 2 render the same evaluation rows *)
let table_cmd name ~doc table =
  let run ws pes verify csv jobs =
    let spec = { Ccdp_core.Experiment.pes; verify } in
    let rows = Ccdp_core.Experiment.evaluate ~jobs:(resolve_jobs jobs) ~spec ws in
    if csv then Ccdp_core.Experiment.csv_rows Format.std_formatter rows
    else Ccdp_core.Experiment.print_tbl Format.std_formatter (table rows)
  in
  Cmd.v (info name ~doc)
    Term.(
      const run $ suite_term spec_four_arg $ pes_arg $ verify_arg $ csv_arg
      $ jobs_arg)

let table1_cmd =
  table_cmd "table1" ~doc:"Reproduce paper Table 1 (speedups)"
    Ccdp_core.Experiment.table1

let table2_cmd =
  table_cmd "table2" ~doc:"Reproduce paper Table 2 (CCDP improvement over BASE)"
    Ccdp_core.Experiment.table2

let ablate_cmd =
  let which_arg =
    Arg.(
      value
      & opt (enum [ ("target", `Target); ("sched", `Sched); ("coherence", `Coh) ]) `Coh
      & info [ "which" ] ~docv:"KIND" ~doc:"target | sched | coherence.")
  in
  let run ws pe which =
    Ccdp_core.Experiment.(
      print_tbl Format.std_formatter
        (match which with
        | `Target -> ablation_target_table ~n_pes:pe ws
        | `Sched -> ablation_technique_table ~n_pes:pe ws
        | `Coh -> ablation_coherence_table ~n_pes:pe ws))
  in
  Cmd.v (info "ablate" ~doc:"Ablation studies (DESIGN.md index)")
    Term.(const run $ suite_term (Term.const true) $ pe_arg $ which_arg)

let load_cmd =
  let program_term =
    let file_arg =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"FILE" ~doc:"CRAFT-dialect source file.")
    in
    checked Term.(const (fun path () -> read_craft path) $ file_arg)
  in
  let run program pe mode verify =
    let s = Ccdp_core.Pipeline.for_mode ~n_pes:pe mode program in
    (* the report is the compile the run executes; a plan-free mode runs
       none, so it reports the plain compile at the same width *)
    let compiled =
      match s.compiled with
      | Some c -> c
      | None ->
          Ccdp_core.Pipeline.compile (Ccdp_machine.Config.t3d ~n_pes:pe) program
    in
    Format.printf "%a@.@." Ccdp_core.Pipeline.report compiled;
    let r = Ccdp_runtime.Interp.run s.cfg s.program ~plan:s.plan ~mode () in
    Format.printf "%a@." Ccdp_runtime.Interp.pp_result r;
    if verify then print_verification program r
  in
  Cmd.v
    (info "load"
       ~doc:
         "Parse a CRAFT-dialect source file, compile and execute it, and \
          verify it against sequential execution")
    Term.(const run $ program_term $ pe_arg $ mode_arg $ verify_arg)

let emit_cmd =
  let run (w : Workload.t) pe =
    let cfg = Ccdp_machine.Config.t3d ~n_pes:pe in
    let compiled = Ccdp_core.Pipeline.compile cfg w.program in
    Ccdp_core.Craft_emit.emit Format.std_formatter compiled;
    Format.print_newline ()
  in
  Cmd.v
    (info "emit"
       ~doc:
         "Print the compiled program as CRAFT-style Fortran with CCDP \
          prefetch annotations")
    Term.(const run $ workload_term $ pe_arg)

let profile_cmd =
  let run (w : Workload.t) pe mode =
    let r = Ccdp_core.Experiment.run_mode ~n_pes:pe mode w in
    let p = Ccdp_ir.Program.inline w.Workload.program in
    let ep = Ccdp_ir.Epoch.partition p.Ccdp_ir.Program.main in
    Ccdp_runtime.Interp.pp_profile Format.std_formatter ep r;
    Format.print_newline ()
  in
  Cmd.v
    (info "profile" ~doc:"Per-epoch cycle breakdown of one run")
    Term.(const run $ workload_term $ pe_arg $ mode_arg)

let parallelize_cmd =
  let run (w : Workload.t) =
    let p = Ccdp_ir.Program.inline w.Workload.program in
    let _, report = Ccdp_analysis.Parallelize.transform p in
    Format.printf "%a@." Ccdp_analysis.Parallelize.pp_report report
  in
  Cmd.v
    (info "parallelize"
       ~doc:"Run the Polaris-style dependence test over a workload")
    Term.(const run $ workload_term)

let fuzz_cmd =
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (runs are deterministic).")
  in
  let count_arg =
    Arg.(
      value
      & opt (int_conv ~what:"count" ~expected:"N >= 0" (fun c -> c >= 0)) 500
      & info [ "count" ] ~docv:"N" ~doc:"Number of random programs to check.")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"DIR"
          ~doc:"Write each shrunk failing reproducer there as a .craft file.")
  in
  let break_stale_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "break-stale" ] ~docv:"K"
          ~doc:
            "Fault injection: drop the K-th stale mark from every compile, \
             demonstrating that the oracle catches an unsound analysis.")
  in
  let sabotage_arg =
    Arg.(
      value & flag
      & info [ "sabotage" ]
          ~doc:
            "Protocol fault injection: run the hardware-coherence sabotage \
             campaign (drop snoop invalidations, corrupt directory presence \
             bits) instead of the differential campaign, demonstrating that \
             the staleness oracle catches each protocol fault class.")
  in
  let shards_arg =
    Arg.(
      value
      & opt (some jobs_conv) None
      & info [ "shards" ] ~docv:"N" ~env:(Cmd.Env.info "CCDP_SHARDS")
          ~doc:
            "Run every shardable variant with intra-run epoch sharding over \
             $(docv) domains, as the CI smoke job does; campaign output must \
             be identical either way.")
  in
  let run seed count dump break_stale sabotage shards jobs =
    if sabotage then begin
      let summaries =
        Ccdp_fuzz.Driver.sabotage_campaign ~jobs:(resolve_jobs jobs) ~seed
          ~count ()
      in
      List.iter
        (fun s ->
          Format.printf "%a@." Ccdp_fuzz.Driver.pp_sabotage_summary s)
        summaries;
      if
        List.exists
          (fun s -> s.Ccdp_fuzz.Driver.sb_escapes > 0)
          summaries
      then exit 1
    end
    else begin
      let mutate_stale =
        Option.map Ccdp_fuzz.Driver.drop_stale_mark break_stale
      in
      let progress i =
        if i mod 50 = 0 then Printf.eprintf "  ... %d/%d\n%!" i count
      in
      let s =
        Ccdp_fuzz.Driver.campaign ~jobs:(resolve_jobs jobs) ?shards
          ?mutate_stale ?dump_dir:dump ~progress ~seed ~count ()
      in
      Format.printf "%a@." Ccdp_fuzz.Driver.pp_summary s;
      if s.Ccdp_fuzz.Driver.s_failures <> [] then exit 1
    end
  in
  Cmd.v
    (info "fuzz"
       ~doc:
         "Differential soundness fuzzing: random CRAFT programs through BASE, \
          every CCDP scheduling variant, the hardware-coherence rivals \
          (MSI, MESI, directory) and the clustered islands mode on a \
          re-islanded machine, checked against sequential execution and \
          the dynamic staleness oracle")
    Term.(
      const run $ seed_arg $ count_arg $ dump_arg $ break_stale_arg
      $ sabotage_arg $ shards_arg $ jobs_arg)

let check_cmd =
  let targets_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:"Workload name or CRAFT-dialect $(b,.craft) source file.")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Check every workload in the suite (plus any TARGETs given).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the machine-readable JSON report.")
  in
  let werror_arg =
    Arg.(
      value & flag
      & info [ "warnings-as-errors" ]
          ~doc:"Exit non-zero on warnings too, not just errors.")
  in
  (* the suite is built only when it is checked, so a size some workload
     rejects cannot stop a check of CRAFT files *)
  let named_term =
    let resolve targets all n iters () =
      let named (w : Workload.t) = (w.name, w.program) in
      let target t =
        if Filename.check_suffix t ".craft" then
          (Filename.remove_extension (Filename.basename t), read_craft t)
        else named (Suite.find ~n ~iters t)
      in
      (if all || targets = [] then List.map named (Suite.all ~n ~iters ())
       else [])
      @ List.map target targets
    in
    checked
      Term.(const resolve $ targets_arg $ all_arg $ n_arg $ iters_arg)
  in
  let run named pe json werror =
    let cfg = Ccdp_machine.Config.t3d ~n_pes:pe in
    let reports =
      List.map
        (fun (name, program) ->
          let compiled = Ccdp_core.Pipeline.compile cfg program in
          { Ccdp_check.Check.name; diags = Ccdp_check.Check.certify compiled })
        named
    in
    if json then print_string (Ccdp_check.Check.json reports)
    else
      List.iter
        (fun r -> Format.printf "%a@." Ccdp_check.Check.pp_report r)
        reports;
    let gate (d : Ccdp_check.Diag.t) =
      werror || d.Ccdp_check.Diag.severity = Ccdp_check.Diag.Error
    in
    if List.exists (fun r -> List.exists gate r.Ccdp_check.Check.diags) reports
    then exit 1
  in
  Cmd.v
    (info "check"
       ~doc:
         "Statically certify compiled coherence plans: coverage of \
          potentially-stale reads, DOALL race freedom, prefetch sizing \
          lints")
    Term.(const run $ named_term $ pe_arg $ json_arg $ werror_arg)

let perf_cmd =
  let run (w : Workload.t) pe mode (_, machine) jobs =
    let rows =
      Bench.perf_cell ~jobs:(resolve_jobs jobs) ~reference:true
        ~workload:w.name mode
        (Ccdp_core.Pipeline.for_mode ~machine ~n_pes:pe mode w.program)
    in
    Bench.perf_header ();
    List.iter Bench.print_perf_row rows;
    Bench.print_ratio rows
  in
  Cmd.v
    (info "perf"
       ~doc:
         "Time one workload on the compiled-plan engine and the reference \
          tree-walking engine (identical simulated cycles, host wall-clock \
          and allocation compared), as one cell of $(b,ccdp bench perf)")
    Term.(
      const run $ workload_term $ pe_arg $ mode_arg $ machine_arg $ jobs_arg)

let bench_cmd =
  let studies_arg =
    Arg.(
      value
      & pos_all (enum Bench.studies) []
      & info [] ~docv:"STUDY"
          ~doc:
            ("The studies to run: "
            ^ doc_alts_enum Bench.studies
            ^ ". With none, or with $(b,all), every study runs, plus the \
               extra kernels."))
  in
  let full_arg =
    Arg.(value & flag & info [ "full" ] ~doc:"Paper-shaped problem sizes (slow).")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Reduced sizes for $(b,perf), $(b,machines) and $(b,rivals).")
  in
  let only_arg =
    Arg.(
      value
      & opt (some machine_conv) None
      & info [ "machine" ] ~docv:"MACHINE"
          ~doc:"Restrict the $(b,machines) sweep to one preset.")
  in
  let run named full quick machine jobs =
    Bench.run ~full ~quick ~machine:(Option.map fst machine)
      ~jobs:(resolve_jobs jobs) named
  in
  Cmd.v
    (info "bench"
       ~doc:
         "Regenerate the paper's tables and the DESIGN.md studies; each \
          study also writes $(i,BENCH_<study>.json) to the working directory")
    Term.(const run $ studies_arg $ full_arg $ quick_arg $ only_arg $ jobs_arg)

let sweep_cmd =
  let run pe w =
    Ccdp_core.Experiment.(
      print_tbl Format.std_formatter (sweep_remote_table ~n_pes:pe w);
      print_tbl Format.std_formatter (sweep_queue_table ~n_pes:pe w))
  in
  Cmd.v (info "sweep" ~doc:"Latency and queue-capacity sweeps")
    Term.(const run $ pe_arg $ workload_term)

let main =
  Cmd.group
    (Cmd.info "ccdp" ~version:"1.0" ~exits
       ~doc:"Compiler-directed cache coherence with data prefetching (Lim & Yew, IPPS'97)")
    [
      list_cmd; analyze_cmd; run_cmd; table1_cmd; table2_cmd; ablate_cmd;
      sweep_cmd; parallelize_cmd; profile_cmd; emit_cmd; load_cmd; check_cmd;
      fuzz_cmd; perf_cmd; bench_cmd;
    ]

let () = exit (Cmd.eval main)
