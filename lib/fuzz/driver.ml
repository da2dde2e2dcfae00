module Config = Ccdp_machine.Config
module Pipeline = Ccdp_core.Pipeline
module Interp = Ccdp_runtime.Interp
module Memsys = Ccdp_runtime.Memsys
module Seq_oracle = Ccdp_runtime.Seq_oracle
module Verify = Ccdp_runtime.Verify
module Schedule = Ccdp_analysis.Schedule
module Stale = Ccdp_analysis.Stale
module Annot = Ccdp_analysis.Annot
module Check = Ccdp_check.Check
module Diag = Ccdp_check.Diag

type failure_kind = Mismatch | Oracle | Static_escape | Static_spurious

type failure = {
  f_index : int;
  f_variant : string;
  f_kind : failure_kind;
  f_detail : string;
  f_original : Gen.desc;
  f_shrunk : Gen.desc;
  f_reproducer : string option;
}

type summary = {
  s_programs : int;
  s_runs : int;
  s_oracle_checks : int;
  s_static_checks : int;
  s_static_caught : int;
  s_static_escapes : int;
  s_failures : failure list;
}

(* BASE runs with an empty plan and uncached shared data; the CCDP
   variants compile with one scheduling technique allowed (the others
   fall back through the demotion chain, so each plan is still total).
   A plan-free mode compiles nothing, so its tuning is unused. *)
type variant = { vname : string; mode : Memsys.mode; tuning : Schedule.tuning }

let variants =
  let t = Schedule.default_tuning in
  [
    { vname = "BASE"; mode = Memsys.Base; tuning = t };
    { vname = "CCDP/all"; mode = Memsys.Ccdp; tuning = t };
    {
      vname = "CCDP/vpg";
      mode = Memsys.Ccdp;
      tuning = { t with Schedule.allow_sp = false; allow_mbp = false };
    };
    {
      vname = "CCDP/sp";
      mode = Memsys.Ccdp;
      tuning = { t with Schedule.allow_vpg = false; allow_mbp = false };
    };
    {
      vname = "CCDP/mbp";
      mode = Memsys.Ccdp;
      tuning = { t with Schedule.allow_vpg = false; allow_sp = false };
    };
    (* hardware-coherence rivals: plan-free like BASE, the protocol itself
       carries the whole coherence obligation *)
    { vname = "MSI"; mode = Memsys.Msi; tuning = t };
    { vname = "MESI"; mode = Memsys.Mesi; tuning = t };
    { vname = "DIR"; mode = Memsys.Directory; tuning = t };
    (* hardware-coherent islands under a cluster-aware CCDP plan, on the
       re-islanded machine (see [machine_for]) *)
    { vname = "CLU"; mode = Memsys.Clustered; tuning = t };
  ]

let variant_names = List.map (fun v -> v.vname) variants

let cfg_of (d : Gen.desc) =
  Config.of_kind d.Gen.net ~n_pes:d.Gen.n_pes

(* The generated machine, re-islanded for the clustered mode: two islands
   when the width divides, flat singleton islands otherwise (odd widths
   still exercise the protocol — every remote-homed write then crosses a
   cluster boundary). A flat machine would leave that protocol nothing to
   do. *)
let machine_for (d : Gen.desc) mode ~n_pes =
  let cfg = Config.of_kind d.Gen.net ~n_pes in
  if mode <> Memsys.Clustered then cfg
  else
    let cp = if n_pes > 1 && n_pes mod 2 = 0 then n_pes / 2 else 1 in
    { cfg with Config.cluster_pes = cp }

let drop_stale_mark k (r : Stale.result) =
  match List.sort compare (Stale.stale_ids r) with
  | [] -> r
  | ids ->
      let n = List.length ids in
      let victim = List.nth ids (((k mod n) + n) mod n) in
      let verdicts = Hashtbl.copy r.Stale.verdicts in
      Hashtbl.replace verdicts victim Stale.Clean;
      { r with Stale.verdicts; n_stale = r.Stale.n_stale - 1 }

(* Each description is set up once per distinct compile. Only prefetch
   scheduling reads the VPG/SP/MBP switches, so the CCDP variants
   reschedule one flat front end; the clustered compile differs from that
   flat one only when its islands are wider than one PE (the generated
   machines are flat); and BASE and the hardware rivals share one
   plan-free set-up. Returns the CCDP/all compile and a function from a
   variant to its set-up, which reschedules or compiles only when that
   variant runs. *)
let setups ?mutate_stale (d : Gen.desc) program =
  let for_mode mode =
    Pipeline.for_mode ~prefetch_clean:d.Gen.pclean ?mutate_stale
      ~machine:(machine_for d mode) ~n_pes:d.Gen.n_pes mode program
  in
  let flat = for_mode Memsys.Ccdp and plan_free = for_mode Memsys.Base in
  let compiled = Option.get flat.compiled in
  let setup v =
    match v.mode with
    | Memsys.Ccdp when v.tuning = compiled.tuning -> flat
    | Memsys.Ccdp ->
        let c = Pipeline.reschedule ~tuning:v.tuning compiled in
        { flat with plan = c.plan; compiled = Some c }
    | Memsys.Clustered ->
        let islands = machine_for d v.mode ~n_pes:d.Gen.n_pes in
        if islands.Config.cluster_pes > 1 then for_mode v.mode else flat
    | _ -> plan_free
  in
  (compiled, setup)

(* The static leg of the differential: certify the CCDP/all compile
   with the coherence verifier. [st_caught]/[st_escape] record whether an
   injected stale-analysis fault actually changed the stale set and whether
   the certifier flagged it; [st_failure] is the reportable finding when
   the static and dynamic verdicts disagree in either direction. *)
type static_leg = {
  st_caught : bool;
  st_escape : bool;
  st_failure : (string * failure_kind * string) option;
}

(* Is the read's coherence obligation discharged by the plan itself —
   prefetched as a lead, covered by a lead carrying an operation whose
   vector group includes it, or bypassed? Mirrors the certifier's coverage
   chain but consults only the plan: an injected fault whose victim is
   still discharged (prefetch-clean compiles prefetch clean reads too)
   leaves the plan sound, and silence is the correct static verdict. *)
let discharged (plan : Annot.plan) id =
  match Annot.cls_of plan id with
  | Annot.Bypass -> true
  | Annot.Lead -> Annot.op_of plan id <> None
  | Annot.Covered lead -> (
      match (Annot.cls_of plan lead, Annot.op_of plan lead) with
      | Annot.Lead, Some (Annot.Vector { group; _ }) -> List.mem id group
      | Annot.Lead, Some (Annot.Pipelined _ | Annot.Back _) -> true
      | _, _ -> false)
  | Annot.Normal -> false

let static_certify ?mutate_stale (d : Gen.desc) program
    (compiled : Pipeline.t) =
  (* the victims are the reads the fault dropped from the stale set of
     the same compile without it *)
  let victims =
    match mutate_stale with
    | None -> []
    | Some _ ->
        let base =
          Pipeline.compile compiled.cfg ~prefetch_clean:d.Gen.pclean program
        in
        let after = Stale.stale_ids compiled.stale in
        List.filter
          (fun id -> not (List.mem id after))
          (Stale.stale_ids base.stale)
  in
  let errors = Check.errors (Check.certify compiled) in
  (* the fault is dangerous only when some victim read's obligation is no
     longer discharged by the mutated plan *)
  let dangerous =
    List.exists
      (fun id -> not (discharged compiled.Pipeline.plan id))
      victims
  in
  match (errors, dangerous) with
  | [], true ->
      {
        st_caught = false;
        st_escape = true;
        st_failure =
          Some
            ( "STATIC",
              Static_escape,
              "injected stale-analysis fault left a read uncovered but \
               raised no static diagnostic" );
      }
  | [], false -> { st_caught = false; st_escape = false; st_failure = None }
  | _ :: _, true -> { st_caught = true; st_escape = false; st_failure = None }
  | errs, false ->
      if victims <> [] then
        (* fault injected and flagged, though its victims stayed covered:
           the diagnostics come from knock-on plan damage, still a catch *)
        { st_caught = true; st_escape = false; st_failure = None }
      else
        {
          st_caught = false;
          st_escape = false;
          st_failure =
            Some
              ( "STATIC",
                Static_spurious,
                String.concat "\n" (List.map Diag.to_string errs) );
        }

(* One description through the sequential baseline plus every variant;
   returns (variant runs, oracle assertions, static leg, first dynamic
   failure). The oracle is consulted before the numeric comparison: a stale
   hit whose value happens to coincide with the fresh one is still a
   bug. The static leg certifies the CCDP/all compile the dynamic legs
   ran. *)
let check_full ?mutate_stale ?pool (d : Gen.desc) =
  let program = Gen.build d in
  let seq = Seq_oracle.run (cfg_of d) program () in
  let compiled, setup = setups ?mutate_stale d program in
  let runs = ref 0 and checks = ref 0 in
  let rec loop = function
    | [] -> None
    | v :: rest -> (
        let s = setup v in
        let r =
          Interp.run s.cfg ~oracle:true ?pool s.program ~plan:s.plan
            ~mode:v.mode ()
        in
        incr runs;
        checks := !checks + Memsys.oracle_checked r.Interp.sys;
        let nviol = Memsys.oracle_violation_count r.Interp.sys in
        if nviol > 0 then
          let detail =
            Format.asprintf "@[<v>%d stale hit(s); first witnesses:@,%a@]"
              nviol
              (Format.pp_print_list Memsys.pp_violation)
              (Memsys.oracle_violations r.Interp.sys)
          in
          Some (v.vname, Oracle, detail)
        else
          let rep =
            Verify.compare_states ~expected:seq ~got:r.Interp.sys program
          in
          if not rep.Verify.ok then
            Some (v.vname, Mismatch, Format.asprintf "%a" Verify.pp_report rep)
          else loop rest)
  in
  let failure = loop variants in
  let static = static_certify ?mutate_stale d program compiled in
  (!runs, !checks, static, failure)

(* Dynamic failures take reporting precedence — they carry runtime
   witnesses; the static counters still record escapes the oracle happened
   to catch first. *)
let first_failure static = function
  | Some _ as f -> f
  | None -> static.st_failure

let check_desc ?mutate_stale d =
  let _, _, static, failure = check_full ?mutate_stale d in
  first_failure static failure

let reproducer_text (d : Gen.desc) =
  let compiled =
    Pipeline.compile (cfg_of d) ~prefetch_clean:d.Gen.pclean (Gen.build d)
  in
  Ccdp_core.Craft_emit.to_string compiled

(* Program generation stays a single sequential PRNG walk (so a seed
   names the same program list for every job count); the expensive part —
   compiling and running every variant of every program — is sharded over
   the pool in batches. Results are folded in index order, so the summary
   (and the stderr progress trace) is identical to the sequential run.
   Shrinking happens on the calling domain: failures are rare, and the
   shrinker's own runs are cheap one-program checks. *)
let campaign ?jobs ?shards ?mutate_stale ?dump_dir ?(progress = fun _ -> ())
    ~seed ~count () =
  let rng = Random.State.make [| seed; 0x51ab |] in
  let descs = List.init count (fun _ -> Gen.generate rng) in
  let runs = ref 0 and checks = ref 0 and failures = ref [] in
  let caught = ref 0 and escapes = ref 0 in
  let consume i (d, (r, c, static, dyn_failure)) =
    runs := !runs + r;
    checks := !checks + c;
    if static.st_caught then incr caught;
    if static.st_escape then incr escapes;
    (match first_failure static dyn_failure with
    | None -> ()
    | Some (vname, kind, detail) ->
        let still_fails d' = Option.is_some (check_desc ?mutate_stale d') in
        let shrunk = Shrink.minimize d ~still_fails in
        (* the shrinker only proposes validated candidates, but a hand-built
           starting description may itself be the problem: never report an
           invalid reproducer *)
        let shrunk =
          match Gen.validate shrunk with Ok () -> shrunk | Error _ -> d
        in
        let reproducer =
          match dump_dir with
          | None -> None
          | Some dir ->
              (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
              let path =
                Filename.concat dir (Printf.sprintf "fuzz_%d_%d.craft" seed i)
              in
              let oc = open_out path in
              output_string oc (reproducer_text shrunk);
              close_out oc;
              Some path
        in
        failures :=
          {
            f_index = i;
            f_variant = vname;
            f_kind = kind;
            f_detail = detail;
            f_original = d;
            f_shrunk = shrunk;
            f_reproducer = reproducer;
          }
          :: !failures);
    progress (i + 1)
  in
  let run_all ?inner jobs =
    Ccdp_exec.Pool.with_pool ?jobs (fun pool ->
        (* batches keep the progress callback responsive without a
           cross-domain channel: check in parallel, fold sequentially *)
        let batch = max 1 (8 * Ccdp_exec.Pool.jobs pool) in
        let rec go start ds =
          match ds with
          | [] -> ()
          | _ ->
              let rec split k = function
                | d :: rest when k > 0 ->
                    let taken, rest = split (k - 1) rest in
                    (d :: taken, rest)
                | rest -> ([], rest)
              in
              let taken, rest = split batch ds in
              let checked =
                Ccdp_exec.Pool.map_runs pool
                  ~label:(fun i ->
                    Printf.sprintf "fuzz program #%d" (start + i))
                  (fun _ d -> (d, check_full ?mutate_stale ?pool:inner d))
                  taken
              in
              List.iteri (fun i r -> consume (start + i) r) checked;
              go (start + List.length taken) rest
        in
        go 0 descs)
  in
  (match shards with
  | Some s when s > 1 ->
      (* intra-run sharding moves the domains inside each simulated run
         (Interp ?pool); the shard pool has a single submission slot, so
         program-level checking goes serial — the summary is identical
         either way *)
      Ccdp_exec.Pool.with_pool ~jobs:s (fun sp ->
          run_all ~inner:sp (Some 1))
  | _ -> run_all jobs);
  {
    s_programs = count;
    s_runs = !runs;
    s_oracle_checks = !checks;
    s_static_checks = count;
    s_static_caught = !caught;
    s_static_escapes = !escapes;
    s_failures = List.rev !failures;
  }

(* ------------------------------------------------------------------ *)
(* Protocol sabotage                                                   *)
(* ------------------------------------------------------------------ *)

(* The hardware-protocol analogue of [mutate_stale]: instead of breaking
   the compiler's analysis, break the protocol's coherence action itself
   (Memsys.sabotage) and demand the staleness oracle witness it. A fault
   that fires leaves a stale copy in some cache with cost accounting
   identical to the healthy run — value-blind testing cannot tell the
   difference, so a numeric mismatch with a silent oracle is an escape. *)
type sabotage_case = {
  sb_name : string;
  sb_mode : Memsys.mode;
  sb_fault : Memsys.sabotage;
}

let sabotage_cases =
  [
    {
      sb_name = "MSI/drop-invalidate";
      sb_mode = Memsys.Msi;
      sb_fault = Memsys.Drop_invalidate;
    };
    {
      sb_name = "MESI/drop-invalidate";
      sb_mode = Memsys.Mesi;
      sb_fault = Memsys.Drop_invalidate;
    };
    {
      sb_name = "DIR/corrupt-presence";
      sb_mode = Memsys.Directory;
      sb_fault = Memsys.Corrupt_presence;
    };
    {
      sb_name = "CLU/drop-back-inval";
      sb_mode = Memsys.Clustered;
      sb_fault = Memsys.Drop_inter_cluster_invalidate;
    };
  ]

type sabotage_summary = {
  sb_case : sabotage_case;
  sb_programs : int;
  sb_fired : int;
  sb_caught : int;
  sb_escapes : int;
}

(* One program under every sabotage case: built once, with one
   sequential baseline, and each case run on the set-up [check_full]
   gives the variant of its mode. So the clustered case runs on the
   re-islanded machine under the cluster-discharge plan — exactly the
   configuration whose soundness leans on the back-invalidations the
   fault drops. Returns (fired, caught, escaped) per case, in
   [sabotage_cases] order. *)
let run_sabotage (d : Gen.desc) =
  let program = Gen.build d in
  let seq = Seq_oracle.run (cfg_of d) program () in
  let _, setup = setups d program in
  List.map
    (fun case ->
      let s = setup (List.find (fun v -> v.mode = case.sb_mode) variants) in
      let r =
        Interp.run s.cfg ~oracle:true ~sabotage:case.sb_fault s.program
          ~plan:s.plan ~mode:case.sb_mode ()
      in
      let fired = Memsys.sabotage_fired r.Interp.sys in
      let caught = Memsys.oracle_violation_count r.Interp.sys > 0 in
      let ok =
        (Verify.compare_states ~expected:seq ~got:r.Interp.sys program)
          .Verify.ok
      in
      (fired, caught, (not ok) && not caught))
    sabotage_cases

(* one task per program; each case's summary is folded from the
   per-program outcomes in index order *)
let sabotage_campaign ?jobs ~seed ~count () =
  let rng = Random.State.make [| seed; 0x5ab0 |] in
  let descs = List.init count (fun _ -> Gen.generate rng) in
  let outcomes =
    Ccdp_exec.Pool.with_pool ?jobs (fun pool ->
        Ccdp_exec.Pool.map_runs pool
          ~label:(fun i -> Printf.sprintf "sabotage program #%d" i)
          (fun _ d -> run_sabotage d)
          descs)
  in
  let tally acc (fired, caught, escape) =
    {
      acc with
      sb_fired = (acc.sb_fired + if fired then 1 else 0);
      sb_caught = (acc.sb_caught + if caught then 1 else 0);
      sb_escapes = (acc.sb_escapes + if escape then 1 else 0);
    }
  in
  List.fold_left (List.map2 tally)
    (List.map
       (fun case ->
         {
           sb_case = case;
           sb_programs = count;
           sb_fired = 0;
           sb_caught = 0;
           sb_escapes = 0;
         })
       sabotage_cases)
    outcomes

let pp_sabotage_summary ppf s =
  Format.fprintf ppf
    "%-22s %d programs, %d faults fired, %d caught by the oracle, %d escapes"
    s.sb_case.sb_name s.sb_programs s.sb_fired s.sb_caught s.sb_escapes

let pp_failure ppf f =
  Format.fprintf ppf
    "@[<v2>program #%d, variant %s: %s@,%s@,shrunk to:@,%a%a@]" f.f_index
    f.f_variant
    (match f.f_kind with
    | Mismatch -> "numeric mismatch vs sequential"
    | Oracle -> "staleness-oracle violation"
    | Static_escape -> "static certifier missed an injected fault"
    | Static_spurious -> "static certifier flagged a clean program")
    f.f_detail Gen.pp f.f_shrunk
    (fun ppf -> function
      | None -> ()
      | Some p -> Format.fprintf ppf "@,reproducer: %s" p)
    f.f_reproducer

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>fuzz: %d programs, %d variant runs, %d oracle checks, %d static \
     certifications (%d faults caught, %d escapes), %d failure(s)"
    s.s_programs s.s_runs s.s_oracle_checks s.s_static_checks
    s.s_static_caught s.s_static_escapes
    (List.length s.s_failures);
  List.iter (fun f -> Format.fprintf ppf "@,%a" pp_failure f) s.s_failures;
  Format.fprintf ppf "@]"
