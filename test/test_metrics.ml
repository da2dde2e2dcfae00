open Ccdp_runtime
open Ccdp_workloads
open Ccdp_test_support.Tutil

let run mode w = Ccdp_core.Experiment.run_mode ~n_pes:4 mode w

let in_unit x = x >= 0.0 && x <= 1.0

let tests =
  [
    case "all ratios land in [0, 1]" (fun () ->
        List.iter
          (fun mode ->
            let m = Metrics.of_result (run mode (Extras.jacobi ~n:16 ~iters:2)) in
            check_true "hit" (in_unit m.Metrics.hit_ratio);
            check_true "coverage" (in_unit m.Metrics.prefetch_coverage);
            check_true "timeliness" (in_unit m.Metrics.prefetch_timeliness);
            check_true "accuracy" (in_unit m.Metrics.prefetch_accuracy);
            check_true "remote" (m.Metrics.remote_ops_per_ref >= 0.0);
            check_true "balance" (in_unit m.Metrics.load_balance))
          [
            Memsys.Base;
            Memsys.Ccdp;
            Memsys.Invalidate;
            Memsys.Hscd;
            Memsys.Msi;
            Memsys.Mesi;
            Memsys.Directory;
          ]);
    case "legacy modes report zero coherence messages" (fun () ->
        List.iter
          (fun mode ->
            let m =
              Metrics.of_result (run mode (Extras.jacobi ~n:16 ~iters:2))
            in
            check_int
              ("coherence msgs in " ^ Memsys.mode_name mode)
              0 m.Metrics.coherence_msgs)
          [ Memsys.Seq; Memsys.Base; Memsys.Ccdp ];
        (* the software invalidate schemes count invalidations, but never
           touch the hardware-protocol counters *)
        List.iter
          (fun mode ->
            let r = run mode (Extras.jacobi ~n:16 ~iters:2) in
            let s = r.Interp.stats in
            let tag c = c ^ " in " ^ Memsys.mode_name mode in
            check_int (tag "upgrades") 0 s.Ccdp_machine.Stats.upgrades;
            check_int (tag "dir msgs") 0 s.Ccdp_machine.Stats.dir_msgs;
            check_int (tag "bus conflicts") 0
              s.Ccdp_machine.Stats.bus_conflicts)
          [ Memsys.Invalidate; Memsys.Hscd ]);
    case "the directory protocol generates coherence messages" (fun () ->
        let m =
          Metrics.of_result (run Memsys.Directory (Extras.jacobi ~n:16 ~iters:2))
        in
        check_true "dir msgs counted" (m.Metrics.coherence_msgs > 0));
    case "BASE has zero prefetch activity and zero hit ratio on shared data"
      (fun () ->
        let m = Metrics.of_result (run Memsys.Base (Extras.transpose ~n:16)) in
        check_float "coverage" 0.0 m.Metrics.prefetch_coverage;
        check_true "remote heavy" (m.Metrics.remote_ops_per_ref > 0.1));
    case "CCDP covers the transpose gather" (fun () ->
        let m = Metrics.of_result (run Memsys.Ccdp (Extras.transpose ~n:16)) in
        check_true "covered" (m.Metrics.prefetch_coverage > 0.3);
        check_true "traffic positive" (m.Metrics.traffic_words > 0));
    case "perfectly balanced kernels balance" (fun () ->
        let m = Metrics.of_result (run Memsys.Base (Extras.triad ~n:16)) in
        check_true "balanced" (m.Metrics.load_balance > 0.9));
    case "printer renders" (fun () ->
        let m = Metrics.of_result (run Memsys.Ccdp (Extras.jacobi ~n:16 ~iters:1)) in
        check_true "output" (String.length (Format.asprintf "%a" Metrics.pp m) > 80));
  ]

(* Hand-built Stats.t fixtures: the counter algebra of Metrics.of_stats
   pinned against by-hand arithmetic, independent of any simulator run. *)

let fixture () =
  let open Ccdp_machine.Stats in
  let s = create () in
  s.reads <- 100;
  s.writes <- 20;
  s.hits <- 50;
  s.miss_local <- 10;
  s.miss_remote <- 5;
  s.uncached_local <- 3;
  s.uncached_remote <- 4;
  s.bypass_reads <- 1;
  s.pf_issued <- 30;
  s.pf_vector_words <- 16;
  s.pf_on_time <- 20;
  s.pf_late <- 5;
  s.pf_late_cycles <- 50;
  s.pf_dropped <- 2;
  s.annex_hits <- 6;
  s.annex_misses <- 2;
  s

let fixture_tests =
  [
    case "hit ratio counts hits over all cached read acquisitions" (fun () ->
        let m =
          Metrics.of_stats (fixture ()) ~line_words:4
            ~per_pe_cycles:[| 100; 100 |]
        in
        (* cached reads = hits 50 + misses 15 + consumed prefetches 25 *)
        check_float "hit ratio" (50. /. 90.) m.Metrics.hit_ratio);
    case "coverage and timeliness decompose consumed prefetches" (fun () ->
        let m =
          Metrics.of_stats (fixture ()) ~line_words:4
            ~per_pe_cycles:[| 100; 100 |]
        in
        (* consumed 25 vs demand misses 15; on-time 20 of 25 *)
        check_float "coverage" 0.625 m.Metrics.prefetch_coverage;
        check_float "timeliness" 0.8 m.Metrics.prefetch_timeliness;
        check_float "late stall" 10.0 m.Metrics.avg_late_stall);
    case "accuracy divides consumed by issued lines" (fun () ->
        let m =
          Metrics.of_stats (fixture ()) ~line_words:4
            ~per_pe_cycles:[| 100; 100 |]
        in
        (* issued lines = 30 + 16/4 vector + 2 dropped = 36 *)
        check_float "accuracy" (25. /. 36.) m.Metrics.prefetch_accuracy);
    case "accuracy clamps at 1.0 when consumption exceeds issue counts"
      (fun () ->
        let open Ccdp_machine.Stats in
        let s = create () in
        s.pf_on_time <- 10;
        s.pf_issued <- 2;
        let m = Metrics.of_stats s ~line_words:4 ~per_pe_cycles:[| 1 |] in
        check_float "clamped" 1.0 m.Metrics.prefetch_accuracy);
    case "traffic words: lines for fills/prefetches, words for the rest"
      (fun () ->
        let m =
          Metrics.of_stats (fixture ()) ~line_words:4
            ~per_pe_cycles:[| 100; 100 |]
        in
        (* 15 misses*4 + 30 prefetches*4 + 16 vector words
           + 3+4 uncached + 1 bypass + 20 writes *)
        check_int "traffic" 224 m.Metrics.traffic_words;
        let m8 =
          Metrics.of_stats (fixture ()) ~line_words:8
            ~per_pe_cycles:[| 100; 100 |]
        in
        check_int "wider lines move more" (224 + (45 * 4))
          m8.Metrics.traffic_words);
    case "remote ops per reference counts annex consultations" (fun () ->
        let m =
          Metrics.of_stats (fixture ()) ~line_words:4
            ~per_pe_cycles:[| 100; 100 |]
        in
        check_float "remote" (8. /. 120.) m.Metrics.remote_ops_per_ref);
    case "load balance is min over max busy cycles" (fun () ->
        let m =
          Metrics.of_stats (fixture ()) ~line_words:4
            ~per_pe_cycles:[| 50; 100; 75 |]
        in
        check_float "balance" 0.5 m.Metrics.load_balance;
        let idle =
          Metrics.of_stats (fixture ()) ~line_words:4 ~per_pe_cycles:[| 0; 0 |]
        in
        check_float "all idle counts as balanced" 1.0 idle.Metrics.load_balance);
    case "coherence msgs sum invalidations, upgrades and directory traffic"
      (fun () ->
        let s = fixture () in
        let open Ccdp_machine.Stats in
        s.invalidations <- 7;
        s.upgrades <- 3;
        s.dir_msgs <- 11;
        (* bus conflicts are queueing events, not messages *)
        s.bus_conflicts <- 100;
        let m =
          Metrics.of_stats s ~line_words:4 ~per_pe_cycles:[| 100; 100 |]
        in
        check_int "sum" 21 m.Metrics.coherence_msgs;
        let zero =
          Metrics.of_stats (fixture ()) ~line_words:4
            ~per_pe_cycles:[| 100; 100 |]
        in
        check_int "zero when the counters stay untouched" 0
          zero.Metrics.coherence_msgs);
    case "empty stats produce all-zero ratios" (fun () ->
        let m =
          Metrics.of_stats
            (Ccdp_machine.Stats.create ())
            ~line_words:4 ~per_pe_cycles:[| 0 |]
        in
        check_float "hit" 0.0 m.Metrics.hit_ratio;
        check_float "coverage" 0.0 m.Metrics.prefetch_coverage;
        check_int "traffic" 0 m.Metrics.traffic_words);
    case "of_result agrees with of_stats on a real run" (fun () ->
        let r = run Memsys.Ccdp (Extras.jacobi ~n:16 ~iters:1) in
        let direct = Metrics.of_result r in
        let via =
          Metrics.of_stats r.Interp.stats
            ~line_words:
              (Memsys.cfg r.Interp.sys).Ccdp_machine.Config.line_words
            ~per_pe_cycles:r.Interp.per_pe_cycles
        in
        check_true "identical" (direct = via));
  ]

let () =
  Alcotest.run "metrics" [ ("derived", tests); ("fixtures", fixture_tests) ]
