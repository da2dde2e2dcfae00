(* Randomized end-to-end soundness of the whole pipeline.

   Generates random (race-free) distributed programs — random epoch
   sequences, schedules, stencil offsets, distributions, structure loops —
   compiles them with the three CCDP phases under random tunings, executes
   on machines of random width, and asserts the numerics match sequential
   execution exactly. Any unsound corner of the stale-reference analysis,
   target classification, scheduling or prefetch runtime shows up here as a
   wrong float.

   The race-freedom discipline mirrors the paper's epoch model (no
   dependences between concurrent tasks): within one parallel epoch an
   array is either only read or only written, and writes never cross the
   parallel column. *)

open Ccdp_ir
open Ccdp_runtime
open Ccdp_test_support.Tutil
module B = Builder
module F = Builder.F

let n = 12
let array_names = [ "A0"; "A1"; "A2" ]

type stmt_desc = {
  dst : int;  (** array index *)
  doi : int;  (** write row offset, -1..1 *)
  reads : (int * int * int) list;  (** (array, row offset, col offset) *)
  guarded : bool;  (** wrap in a structural if (Fig. 2 case-5 paths) *)
}

type epoch_desc =
  | Par of { sched : int; lo1 : bool; stmts : stmt_desc list }
  | SerialSweep of { src : int; col : int; dst : int }

type prog_desc = {
  dist_dim : int;  (** 0 or 1 *)
  epochs : epoch_desc list;
  wrap_in_loop : bool;  (** wrap the tail epochs in a 2-iteration loop *)
}

let gen_stmt =
  QCheck.Gen.(
    let* dst = int_range 0 2 in
    let* doi = int_range (-1) 1 in
    let* nreads = int_range 1 3 in
    let* guarded = frequency [ (3, return false); (1, return true) ] in
    let* reads =
      list_size (return nreads)
        (triple (int_range 0 2) (int_range (-1) 1) (int_range (-1) 1))
    in
    return { dst; doi; reads; guarded })

let gen_epoch =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          let* sched = int_range 0 3 in
          let* lo1 = bool in
          let* stmts = list_size (int_range 1 2) gen_stmt in
          return (Par { sched; lo1; stmts }) );
        ( 1,
          let* src = int_range 0 2 in
          let* col = int_range 1 (n - 2) in
          let* dst = int_range 0 2 in
          return (SerialSweep { src; col; dst }) );
      ])

let gen_prog =
  QCheck.Gen.(
    let* dist_dim = int_range 0 1 in
    let* epochs = list_size (int_range 2 4) gen_epoch in
    let* wrap_in_loop = bool in
    return { dist_dim; epochs; wrap_in_loop })

(* enforce the race-freedom discipline per parallel epoch: drop reads of
   arrays the epoch writes, and never write the destination of a
   SerialSweep... (simplest: also allowed, sweeps are single-task) *)
let sanitize_epoch e =
  match e with
  | SerialSweep _ -> e
  | Par p ->
      let written = List.map (fun s -> s.dst) p.stmts in
      let stmts =
        List.map
          (fun s ->
            let reads =
              List.filter (fun (a, _, _) -> not (List.mem a written)) s.reads
            in
            let reads = if reads = [] then [ ((s.dst + 1) mod 3, 0, 0) ] else reads in
            (* the fallback read must also avoid written arrays *)
            let reads =
              List.filter (fun (a, _, _) -> not (List.mem a written)) reads
            in
            { s with reads })
          p.stmts
      in
      Par { p with stmts }

let build (d : prog_desc) =
  let b = B.create ~name:"fuzz" () in
  B.param b "n" n;
  let dist = Dist.block_along ~rank:2 ~dim:d.dist_dim in
  List.iter (fun a -> B.array_ b a [| n; n |] ~dist) array_names;
  let open B.A in
  let arr k = List.nth array_names k in
  let init =
    (* deterministic full initialization of every array, owner-aligned *)
    B.doall b "j" (bc 0) (bc (n - 1))
      [
        B.for_ b "i" (bc 0)
          (bc (n - 1))
          (List.mapi
             (fun k a ->
               B.assign b a
                 [ v "i"; v "j" ]
                 F.(
                   (F.iv "i" * const (0.25 +. (0.125 *. float_of_int k)))
                   - (F.iv "j" * const 0.0625)))
             array_names);
      ]
  in
  let mk_epoch e =
    match sanitize_epoch e with
    | SerialSweep { src; col; dst } ->
        [
          Stmt.Sassign ("acc", F.const 0.0);
          B.for_ b "k" (bc 1)
            (bc (n - 2))
            [
              Stmt.Sassign ("acc", F.(sv "acc" + B.rd b (arr src) [ v "k"; c col ]));
            ];
          B.assign b (arr dst) [ c 0; c 0 ] F.(sv "acc" * const 0.001);
        ]
    | Par { sched; lo1; stmts } ->
        let sched =
          match sched with
          | 0 -> Stmt.Static_block
          | 1 -> Stmt.Static_aligned n
          | 2 -> Stmt.Static_cyclic
          | _ -> Stmt.Dynamic 2
        in
        let lo = if lo1 then 1 else 0 and hi = if lo1 then n - 2 else n - 1 in
        (* offsets only allowed on the sub-range *)
        let clip o = if lo1 then o else 0 in
        [
          B.doall b ~sched "j" (bc lo) (bc hi)
            [
              B.for_ b "i" (bc lo) (bc hi)
                (List.map
                   (fun s ->
                     let rhs =
                       List.fold_left
                         (fun acc (a, oi, oj) ->
                           F.(
                             acc
                             + B.rd b (arr a)
                                 [ v "i" +! c (clip oi); v "j" +! c (clip oj) ]))
                         (F.const 0.5) s.reads
                     in
                     let assign =
                       B.assign b (arr s.dst)
                         [ v "i" +! c (clip s.doi); v "j" ]
                         F.(rhs * const 0.125)
                     in
                     if s.guarded then
                       (* a structural guard: the analyses treat both
                          branches as possible, the runtime takes one; the
                          else-branch writes the same owner-aligned element
                          so the epoch's write-set stays race-free *)
                       Stmt.If
                         ( Stmt.Icond (Stmt.Lt, v "i", c ((n / 2) + lo)),
                           [ assign ],
                           [
                             B.assign b (arr s.dst)
                               [ v "i" +! c (clip s.doi); v "j" ]
                               (F.const 0.25);
                           ] )
                     else assign)
                   stmts);
            ];
        ]
  in
  let body = List.concat_map mk_epoch d.epochs in
  let main =
    if d.wrap_in_loop then [ init; B.for_ b "t" (bc 1) (bc 2) body ]
    else init :: body
  in
  B.finish b main

let tunings =
  Ccdp_analysis.Schedule.
    [
      default_tuning;
      { default_tuning with allow_vpg = false };
      { default_tuning with allow_sp = false };
      { default_tuning with allow_vpg = false; allow_sp = false };
      { default_tuning with sp_max = 2; mbp_min_cycles = 8 };
      { default_tuning with vpg_levels = 2 };
    ]

let check_sound ~mode (d, n_pes, tuning_ix) =
  let program = build d in
  let machine =
    (* rotate through the interconnect presets: half the draws stay on
       the uniform machine, the rest exercise torus, mesh and crossbar
       (the last with its link-contention model on) *)
    match tuning_ix mod 6 with
    | 2 -> Ccdp_machine.Config.t3d_torus
    | 4 -> Ccdp_machine.Config.t3d_mesh
    | 5 -> Ccdp_machine.Config.t3d_xbar
    | _ -> Ccdp_machine.Config.t3d
  in
  let tuning = List.nth tunings (tuning_ix mod List.length tunings) in
  (* odd draws also exercise the future-work extension (prefetching clean
     references) *)
  let prefetch_clean = tuning_ix mod 2 = 1 in
  let s =
    Ccdp_core.Pipeline.for_mode ~tuning ~prefetch_clean ~machine ~n_pes mode
      program
  in
  let r = Interp.run s.cfg s.program ~plan:s.plan ~mode () in
  let v = Verify.against_sequential program ~init:(fun _ -> ()) r in
  if not v.Verify.ok then
    QCheck.Test.fail_reportf "mode %s diverged: %s" (Memsys.mode_name mode)
      (Format.asprintf "%a" Verify.pp_report v)
  else true

let gen_case =
  QCheck.make
    QCheck.Gen.(
      triple gen_prog (oneofl [ 2; 3; 4; 8 ]) (int_range 0 10))
    ~print:(fun (d, p, t) ->
      Format.asprintf "pes=%d tuning=%d@.%a" p t Program.pp (build d))

(* the deepest property: the analysis over-approximates observed reality —
   every read that actually sees a stale value in an INCOHERENT run must
   have been classified potentially stale *)
let check_analysis_covers_reality (d, n_pes, _) =
  let program = build d in
  let cfg = Ccdp_machine.Config.t3d ~n_pes in
  let compiled = Ccdp_core.Pipeline.compile cfg program in
  let r =
    Interp.run cfg compiled.Ccdp_core.Pipeline.program
      ~plan:(Ccdp_analysis.Annot.empty ()) ~mode:Memsys.Incoherent ()
  in
  let observed = Memsys.observed_stale_ids r.Interp.sys in
  let classified =
    Ccdp_analysis.Stale.stale_ids compiled.Ccdp_core.Pipeline.stale
  in
  let missed = List.filter (fun id -> not (List.mem id classified)) observed in
  if missed <> [] then
    QCheck.Test.fail_reportf
      "reads %s observed stale values but were classified clean"
      (String.concat ", " (List.map string_of_int missed))
  else true

(* the text front end and emitter are inverses on the whole generated
   program space: identical analysis and cycle-exact execution *)
let check_roundtrip (d, n_pes, _) =
  let program = build d in
  let cfg = Ccdp_machine.Config.t3d ~n_pes in
  let c1 = Ccdp_core.Pipeline.compile cfg program in
  let text = Ccdp_core.Craft_emit.to_string c1 in
  let c2 =
    try Ccdp_core.Pipeline.compile cfg (Craft_parse.program text)
    with Craft_parse.Error (ln, c, m) ->
      QCheck.Test.fail_reportf "reparse failed at line %d, column %d: %s@.%s"
        ln c m text
  in
  let run (c : Ccdp_core.Pipeline.t) =
    (Interp.run cfg c.Ccdp_core.Pipeline.program ~plan:c.Ccdp_core.Pipeline.plan
       ~mode:Memsys.Ccdp ())
      .Interp.cycles
  in
  let a = run c1 and b = run c2 in
  if a <> b then
    QCheck.Test.fail_reportf "cycles diverged after round-trip: %d vs %d" a b
  else true

let suite =
  [
    qcheck ~count:120 "CCDP execution always matches sequential numerics"
      gen_case (check_sound ~mode:Memsys.Ccdp);
    qcheck ~count:60 "BASE execution always matches sequential numerics"
      gen_case (check_sound ~mode:Memsys.Base);
    qcheck ~count:60 "INVALIDATE execution always matches sequential numerics"
      gen_case (check_sound ~mode:Memsys.Invalidate);
    qcheck ~count:60 "HSCD execution always matches sequential numerics"
      gen_case (check_sound ~mode:Memsys.Hscd);
    qcheck ~count:120 "the stale analysis covers every observed stale read"
      gen_case check_analysis_covers_reality;
    qcheck ~count:60 "emit/parse round-trips are cycle-exact on random programs"
      gen_case check_roundtrip;
  ]

let () = Alcotest.run "soundness" [ ("fuzz", suite) ]
