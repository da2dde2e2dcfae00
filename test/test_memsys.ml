open Ccdp_ir
open Ccdp_machine
open Ccdp_runtime
open Ccdp_analysis
open Ccdp_test_support.Tutil
module B = Builder
module F = Builder.F

let cfg = Config.tiny ~n_pes:2
(* tiny: hit=1 local=10 uncached_local=4 remote=40 store=1/4 pf_issue=2
   pf_extract=2 annex=5 vget=20+1/word line=4 queue=8 *)

let program () =
  let b = B.create ~name:"ms" () in
  B.array_ b "A" [| 8; 8 |] ~dist:(Dist.block_along ~rank:2 ~dim:1);
  B.finish b [ Stmt.Assign (B.ref_ b "A" [ B.A.c 0; B.A.c 0 ], F.const 0.0) ]

let mk ?(plan = Annot.empty ()) mode =
  let sys = Memsys.create cfg (program ()) ~plan mode in
  (* element (i,j) = i + 10j for ground truth *)
  for i = 0 to 7 do
    for j = 0 to 7 do
      Memsys.set sys "A" [| i; j |] (float_of_int (i + (10 * j)))
    done
  done;
  sys

let rref id = Reference.make ~id "A" [| Affine.var "i"; Affine.var "j" |]
let local_idx = [| 0; 0 |] (* owned by PE 0 *)
let remote_idx = [| 0; 5 |] (* owned by PE 1 *)

let plan_with cls op =
  let p = Annot.empty () in
  Hashtbl.replace p.Annot.classes 0 cls;
  (* leads in these tests model potentially-stale references: without a
     Stale verdict they would count as clean latency-hiding prefetches and
     take the relaxed read path *)
  Hashtbl.replace p.Annot.stale.Stale.verdicts 0
    (Stale.Stale { writer_ref = 99; writer_epoch = 0; at_acquire = false });
  (match op with Some o -> Hashtbl.replace p.Annot.ops 0 o | None -> ());
  p

let base_mode =
  [
    case "uncached local read costs the streamed latency" (fun () ->
        let sys = mk Memsys.Base in
        let v = Memsys.read sys ~pe:0 (rref 0) ~idx:local_idx in
        check_float "value" 0.0 v;
        check_int "cycles" cfg.Config.uncached_local (Memsys.clock sys ~pe:0);
        check_int "counted" 1 (Memsys.total_stats sys).Stats.uncached_local);
    case "uncached remote read pays network latency plus annex setup" (fun () ->
        let sys = mk Memsys.Base in
        let v = Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx in
        check_float "value" 50.0 v;
        check_int "cycles" (cfg.Config.remote + cfg.Config.annex_setup)
          (Memsys.clock sys ~pe:0);
        (* second remote read to the same PE: annex hit, no setup *)
        let _ = Memsys.read sys ~pe:0 (rref 0) ~idx:[| 1; 5 |] in
        check_int "second cheaper"
          (cfg.Config.annex_setup + (2 * cfg.Config.remote))
          (Memsys.clock sys ~pe:0));
    case "base mode never fills the cache" (fun () ->
        let sys = mk Memsys.Base in
        let _ = Memsys.read sys ~pe:0 (rref 0) ~idx:local_idx in
        let _ = Memsys.read sys ~pe:0 (rref 0) ~idx:local_idx in
        check_int "no hits" 0 (Memsys.total_stats sys).Stats.hits);
  ]

let cached_modes =
  [
    case "seq: miss fills the line, neighbours then hit" (fun () ->
        let sys = mk Memsys.Seq in
        let _ = Memsys.read sys ~pe:0 (rref 0) ~idx:local_idx in
        check_int "miss cost" cfg.Config.local (Memsys.clock sys ~pe:0);
        let v = Memsys.read sys ~pe:0 (rref 0) ~idx:[| 1; 0 |] in
        check_float "neighbour value" 1.0 v;
        check_int "hit cost" (cfg.Config.local + cfg.Config.hit) (Memsys.clock sys ~pe:0);
        let s = Memsys.total_stats sys in
        check_int "one miss" 1 s.Stats.miss_local;
        check_int "one hit" 1 s.Stats.hits);
    case "write-through: memory current, writer cache patched" (fun () ->
        let sys = mk Memsys.Incoherent in
        let _ = Memsys.read sys ~pe:0 (rref 0) ~idx:local_idx in
        Memsys.write sys ~pe:0 (rref 1) ~idx:local_idx 99.0;
        check_float "memory" 99.0 (Memsys.get sys "A" local_idx);
        check_float "cache" 99.0 (Memsys.read sys ~pe:0 (rref 0) ~idx:local_idx));
    case "the coherence problem: another PE's cached copy goes stale" (fun () ->
        let sys = mk Memsys.Incoherent in
        (* PE 0 caches the remote element *)
        let v0 = Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx in
        check_float "first read" 50.0 v0;
        (* owner (PE 1) overwrites it *)
        Memsys.write sys ~pe:1 (rref 1) ~idx:remote_idx 77.0;
        check_float "memory updated" 77.0 (Memsys.get sys "A" remote_idx);
        (* PE 0 still sees the stale cached copy *)
        check_float "stale read" 50.0 (Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx);
        check_true "stale words counted" (Memsys.stale_cached_words sys > 0));
    case "invalidate mode clears caches at the boundary" (fun () ->
        let sys = mk Memsys.Invalidate in
        let _ = Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx in
        Memsys.write sys ~pe:1 (rref 1) ~idx:remote_idx 77.0;
        Memsys.epoch_boundary sys;
        check_float "fresh after invalidate" 77.0
          (Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx);
        check_true "invalidations counted"
          ((Memsys.total_stats sys).Stats.invalidations > 0));
  ]

let prefetching =
  [
    case "issued prefetch parks in the queue and is consumed on time" (fun () ->
        let plan = plan_with Annot.Lead (Some (Annot.Pipelined { ref_id = 0; loop_id = 0; distance = 2; every = 1 })) in
        let sys = mk ~plan Memsys.Ccdp in
        Memsys.issue_line_prefetch sys ~pe:0 "A" ~idx:remote_idx;
        check_int "issued" 1 (Memsys.total_stats sys).Stats.pf_issued;
        (* burn enough cycles for the data to arrive *)
        Memsys.charge sys ~pe:0 100;
        let v = Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx in
        check_float "value" 50.0 v;
        let s = Memsys.total_stats sys in
        check_int "on time" 1 s.Stats.pf_on_time;
        check_int "no stall" 0 s.Stats.stall_cycles);
    case "early consumption stalls for the residual latency" (fun () ->
        let plan = plan_with Annot.Lead (Some (Annot.Pipelined { ref_id = 0; loop_id = 0; distance = 2; every = 1 })) in
        let sys = mk ~plan Memsys.Ccdp in
        Memsys.issue_line_prefetch sys ~pe:0 "A" ~idx:remote_idx;
        let _ = Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx in
        let s = Memsys.total_stats sys in
        check_int "late" 1 s.Stats.pf_late;
        check_true "stalled" (s.Stats.stall_cycles > 0));
    case "dropped prefetch falls back to a bypass fetch" (fun () ->
        let plan = plan_with Annot.Lead (Some (Annot.Pipelined { ref_id = 0; loop_id = 0; distance = 2; every = 1 })) in
        let sys = mk ~plan Memsys.Ccdp in
        (* fill the 8-word queue with two other lines *)
        Memsys.issue_line_prefetch sys ~pe:0 "A" ~idx:[| 0; 4 |];
        Memsys.issue_line_prefetch sys ~pe:0 "A" ~idx:[| 4; 4 |];
        Memsys.issue_line_prefetch sys ~pe:0 "A" ~idx:remote_idx;
        check_int "dropped" 1 (Memsys.total_stats sys).Stats.pf_dropped;
        let v = Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx in
        check_float "fresh anyway" 50.0 v;
        check_int "bypassed" 1 (Memsys.total_stats sys).Stats.bypass_reads);
    case "issue invalidates the stale cached line first" (fun () ->
        let plan = plan_with Annot.Lead (Some (Annot.Pipelined { ref_id = 0; loop_id = 0; distance = 2; every = 1 })) in
        let sys = mk ~plan Memsys.Ccdp in
        (* cache the line via a normal read on another ref id *)
        let _ = Memsys.read sys ~pe:0 (rref 5) ~idx:remote_idx in
        Memsys.epoch_boundary sys;
        (* owner overwrites; reader's copy is now stale *)
        Memsys.write sys ~pe:1 (rref 6) ~idx:remote_idx 123.0;
        Memsys.epoch_boundary sys;
        Memsys.issue_line_prefetch sys ~pe:0 "A" ~idx:remote_idx;
        Memsys.charge sys ~pe:0 100;
        check_float "fresh" 123.0 (Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx));
    case "bypass class reads memory around the cache" (fun () ->
        let plan = plan_with Annot.Bypass None in
        let sys = mk ~plan Memsys.Ccdp in
        let _ = Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx in
        Memsys.write sys ~pe:1 (rref 6) ~idx:remote_idx 5.5;
        let v = Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx in
        check_float "always fresh" 5.5 v;
        check_int "no fills" 0 (Memsys.total_stats sys).Stats.hits);
    case "moved-back read stalls only for the residual latency" (fun () ->
        let plan = plan_with Annot.Lead (Some (Annot.Back { ref_id = 0; cycles = 30 })) in
        let sys = mk ~plan Memsys.Ccdp in
        Memsys.charge sys ~pe:0 100;
        let t0 = Memsys.clock sys ~pe:0 in
        let v = Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx in
        check_float "value" 50.0 v;
        let elapsed = Memsys.clock sys ~pe:0 - t0 in
        (* remote 40 - back 30 = 10 residual + annex 5 + issue 2 + extract 2 *)
        check_int "residual" (10 + 5 + 2 + 2) elapsed);
    case "moved-back issue is clamped at the epoch start" (fun () ->
        let plan = plan_with Annot.Lead (Some (Annot.Back { ref_id = 0; cycles = 1000 })) in
        let sys = mk ~plan Memsys.Ccdp in
        Memsys.epoch_boundary sys;
        Memsys.charge sys ~pe:0 5;
        let t0 = Memsys.clock sys ~pe:0 in
        let _ = Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx in
        let elapsed = Memsys.clock sys ~pe:0 - t0 in
        (* issue at epoch start: 5 cycles already passed, 35 residual *)
        check_int "clamped" (35 + 5 + 2 + 2) elapsed);
  ]

let vget =
  [
    case "vector prefetch stages lines with pipelined arrival" (fun () ->
        let sys = mk Memsys.Ccdp in
        Memsys.vget_issue sys ~pe:0 "A"
          [ [| 0; 5 |]; [| 1; 5 |]; [| 4; 5 |]; [| 5; 5 |] ];
        let s = Memsys.total_stats sys in
        check_int "one op" 1 s.Stats.pf_vector;
        check_int "two lines = 8 words" 8 s.Stats.pf_vector_words;
        Memsys.charge sys ~pe:0 100;
        check_float "first" 50.0 (Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx);
        check_int "on-time" 1 (Memsys.total_stats sys).Stats.pf_on_time);
    case "vget skips lines already fresh but still pays the call" (fun () ->
        let sys = mk Memsys.Ccdp in
        let _ = Memsys.read sys ~pe:0 (rref 9) ~idx:remote_idx in
        let t0 = Memsys.clock sys ~pe:0 in
        Memsys.vget_issue sys ~pe:0 "A" [ [| 0; 5 |] ];
        check_int "nothing transferred" 0 (Memsys.total_stats sys).Stats.pf_vector_words;
        check_true "startup charged" (Memsys.clock sys ~pe:0 - t0 >= cfg.Config.vget_startup));
    case "leftover vget lines count as unused at the boundary" (fun () ->
        let sys = mk Memsys.Ccdp in
        Memsys.vget_issue sys ~pe:0 "A" [ [| 0; 5 |] ];
        Memsys.epoch_boundary sys;
        check_int "unused" 1 (Memsys.total_stats sys).Stats.pf_unused);
  ]

let private_data =
  [
    case "replicated arrays are cached local in every mode" (fun () ->
        let b = B.create ~name:"r" () in
        B.array_ b "Rp" [| 8 |] ~dist:Dist.replicated;
        let p = B.finish b [ Stmt.Assign (B.ref_ b "Rp" [ B.A.c 0 ], F.const 0.0) ] in
        let sys = Memsys.create cfg p ~plan:(Annot.empty ()) Memsys.Base in
        Memsys.set sys "Rp" [| 3 |] 8.0;
        let r = Reference.make ~id:0 "Rp" [| Affine.var "i" |] in
        let _ = Memsys.read sys ~pe:1 r ~idx:[| 3 |] in
        let _ = Memsys.read sys ~pe:1 r ~idx:[| 3 |] in
        let s = Memsys.total_stats sys in
        check_int "cached even in BASE" 1 s.Stats.hits;
        check_int "miss local" 1 s.Stats.miss_local);
  ]


(* HSCD version checks, including the epoch-granularity false-sharing
   corner: a line filled in the same epoch as a concurrent write to a
   different word of that line must not survive the version check. *)
let hscd_tests =
  [
    case "reads of never-rewritten data keep hitting" (fun () ->
        let sys = mk Memsys.Hscd in
        Memsys.epoch_boundary sys;
        let _ = Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx in
        let _ = Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx in
        check_int "second is a hit" 1 (Memsys.total_stats sys).Stats.hits);
    case "a later write self-invalidates older lines of the array" (fun () ->
        let sys = mk Memsys.Hscd in
        Memsys.epoch_boundary sys;
        let _ = Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx in
        Memsys.epoch_boundary sys;
        Memsys.write sys ~pe:1 (rref 1) ~idx:remote_idx 42.0;
        Memsys.epoch_boundary sys;
        let v = Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx in
        check_float "fresh" 42.0 v;
        check_true "self-invalidated"
          ((Memsys.total_stats sys).Stats.invalidations > 0));
    case "same-epoch fill does not survive a same-epoch line write" (fun () ->
        let sys = mk Memsys.Hscd in
        Memsys.epoch_boundary sys;
        (* PE 1 writes word (1,5); PE 0 then reads word (0,5) of the same
           line, capturing the line mid-epoch *)
        Memsys.write sys ~pe:1 (rref 1) ~idx:[| 1; 5 |] 7.0;
        let _ = Memsys.read sys ~pe:0 (rref 0) ~idx:[| 0; 5 |] in
        Memsys.epoch_boundary sys;
        (* next epoch, PE 0 reads the word PE 1 wrote: the fill is not
           strictly newer than the version, so it must refetch *)
        let v = Memsys.read sys ~pe:0 (rref 2) ~idx:[| 1; 5 |] in
        check_float "fresh" 7.0 v);
  ]

let staging =
  [
    case "oversized vector staging evicts oldest lines, reads stay correct"
      (fun () ->
        (* tiny cache = 64 words = 16 lines of staging capacity; stage a
           whole 256-word array (64 lines) in one sweep *)
        let b = B.create ~name:"stg" () in
        B.array_ b "BIG" [| 16; 16 |] ~dist:(Dist.block_along ~rank:2 ~dim:1);
        let p =
          B.finish b
            [ Stmt.Assign (B.ref_ b "BIG" [ B.A.c 0; B.A.c 0 ], F.const 0.0) ]
        in
        let sys = Memsys.create cfg p ~plan:(Annot.empty ()) Memsys.Ccdp in
        Memsys.set sys "BIG" [| 3; 3 |] 9.0;
        let idxs =
          List.concat_map
            (fun j -> List.init 16 (fun i -> [| i; j |]))
            (List.init 16 (fun j -> j))
        in
        Memsys.vget_issue sys ~pe:0 "BIG" idxs;
        let s = Memsys.total_stats sys in
        check_true "staged everything" (s.Stats.pf_vector_words > 64);
        check_true "evicted" (s.Stats.pf_evicted > 0);
        (* an evicted (oldest) line demand-misses but returns fresh data *)
        Memsys.charge sys ~pe:0 5000;
        let r = Reference.make ~id:50 "BIG" [| Affine.var "i"; Affine.var "j" |] in
        check_float "correct anyway" 9.0 (Memsys.read sys ~pe:0 r ~idx:[| 3; 3 |]));
  ]

(* a clean lead (the future-work latency-hiding prefetch) trusts any
   cached copy and skips staged-or-cached lines at issue *)
let clean_plan op =
  let p = Annot.empty () in
  Hashtbl.replace p.Annot.classes 0 Annot.Lead;
  Hashtbl.replace p.Annot.ops 0 op;
  (* no Stale verdict: the lead is clean *)
  p

let clean_leads =
  [
    case "a clean lead may hit leftover cached lines" (fun () ->
        let plan =
          clean_plan (Annot.Pipelined { ref_id = 0; loop_id = 0; distance = 2; every = 1 })
        in
        let sys = mk ~plan Memsys.Ccdp in
        (* cache the line in one epoch, read the lead in the next: a stale
           lead would bypass, a clean lead hits *)
        let _ = Memsys.read sys ~pe:0 (rref 7) ~idx:remote_idx in
        Memsys.epoch_boundary sys;
        let _ = Memsys.read sys ~pe:0 (rref 0) ~idx:remote_idx in
        (* the first read was the demand miss; the clean lead hits *)
        check_int "hit" 1 (Memsys.total_stats sys).Stats.hits);
    case "clean issue skips lines with any cached copy" (fun () ->
        let plan =
          clean_plan (Annot.Pipelined { ref_id = 0; loop_id = 0; distance = 2; every = 1 })
        in
        let sys = mk ~plan Memsys.Ccdp in
        let _ = Memsys.read sys ~pe:0 (rref 7) ~idx:remote_idx in
        Memsys.epoch_boundary sys;
        Memsys.issue_line_prefetch ~skip_cached:true sys ~pe:0 "A" ~idx:remote_idx;
        check_int "nothing issued" 0 (Memsys.total_stats sys).Stats.pf_issued);
    case "a stale issue on the same state invalidates and stages" (fun () ->
        let sys = mk Memsys.Ccdp in
        let _ = Memsys.read sys ~pe:0 (rref 7) ~idx:remote_idx in
        Memsys.epoch_boundary sys;
        Memsys.issue_line_prefetch sys ~pe:0 "A" ~idx:remote_idx;
        check_int "issued" 1 (Memsys.total_stats sys).Stats.pf_issued);
  ]

(* The staleness oracle's witness ledger, driven past its 16-witness cap
   from both PEs: the count stays exact, the list keeps the oldest 16 —
   PE-major where a buffered mode stages per PE until the barrier,
   execution order otherwise — and an epoch boundary (which drains the
   staging) changes neither. *)
let ledger_tests =
  (* each PE's two own columns, in the order it reads them *)
  let words pe =
    List.concat_map
      (fun j -> List.init 8 (fun i -> [| i; j |]))
      (if pe = 0 then [ 0; 1 ] else [ 4; 5 ])
  in
  let turns = 10 (* stale hits per PE *) in
  let run ?sabotage mode =
    let sys =
      Memsys.create cfg ~oracle:true ?sabotage (program ())
        ~plan:(Annot.empty ()) mode
    in
    (* each PE caches its columns, then the other PE overwrites them *)
    List.iter
      (fun pe ->
        List.iter (fun idx -> ignore (Memsys.read sys ~pe (rref 0) ~idx)) (words pe))
      [ 0; 1 ];
    List.iter
      (fun pe ->
        List.iter
          (fun idx -> Memsys.write sys ~pe:(1 - pe) (rref 1) ~idx 1.0)
          (words pe))
      [ 0; 1 ];
    Memsys.epoch_boundary sys;
    let checked0 = Memsys.oracle_checked sys in
    (* the PEs take turns hitting their stale copies, PE 1 first *)
    for k = 0 to turns - 1 do
      List.iter
        (fun pe ->
          ignore (Memsys.read sys ~pe (rref 2) ~idx:(List.nth (words pe) k)))
        [ 1; 0 ]
    done;
    (sys, checked0)
  in
  let witness pe k = (pe, 2, List.nth (words pe) k) in
  let ledger sys =
    ( Memsys.oracle_checked sys,
      Memsys.oracle_violation_count sys,
      List.map
        (fun (v : Memsys.violation) -> (v.v_pe, v.v_ref, v.v_index))
        (Memsys.oracle_violations sys) )
  in
  let check name ?sabotage mode expected =
    case name (fun () ->
        let sys, checked0 = run ?sabotage mode in
        let ((checked, count, kept) as before) = ledger sys in
        check_int "the count is exact" (2 * turns) count;
        check_int "every hit is checked" (checked0 + (2 * turns)) checked;
        check_true "the oldest 16 witnesses"
          (kept = List.filteri (fun i _ -> i < 16) expected);
        Memsys.epoch_boundary sys;
        check_true "the boundary changes nothing" (ledger sys = before))
  in
  [
    check "a buffered ledger keeps the first 16 witnesses, PE-major"
      Memsys.Incoherent
      (List.init turns (witness 0) @ List.init turns (witness 1));
    check "an unbuffered ledger keeps the first 16 in execution order"
      ~sabotage:Memsys.Drop_invalidate Memsys.Msi
      (List.concat (List.init turns (fun k -> [ witness 1 k; witness 0 k ])));
  ]

let () =
  Alcotest.run "memsys"
    [
      ("base", base_mode);
      ("cached", cached_modes);
      ("prefetch", prefetching);
      ("vget", vget);
      ("private", private_data);
      ("hscd", hscd_tests);
      ("staging", staging);
      ("clean-leads", clean_leads);
      ("ledger", ledger_tests);
    ]
