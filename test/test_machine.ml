open Ccdp_machine
open Ccdp_test_support.Tutil

let config_tests =
  [
    case "t3d preset validates at any width" (fun () ->
        List.iter
          (fun p -> check_true "valid" (Config.validate (Config.t3d ~n_pes:p) = []))
          [ 1; 2; 16; 64; 256 ]);
    case "tiny preset validates" (fun () ->
        check_true "valid" (Config.validate (Config.tiny ~n_pes:4) = []));
    case "t3d geometry matches the hardware" (fun () ->
        let c = Config.t3d ~n_pes:1 in
        check_int "8KB of words" 1024 c.Config.cache_words;
        check_int "32B lines" 4 c.Config.line_words;
        check_int "16-word queue" 16 c.Config.prefetch_queue_words;
        check_int "256 lines" 256 (Config.lines c);
        (* direct-mapped: lines one cache size apart share their only slot *)
        let cache = Cache.of_config c and line = Array.make 4 0.0 in
        ignore (Cache.fill cache ~line:3 line);
        check_true "direct mapped" (Cache.fill cache ~line:259 line = Some 3));
    case "barrier cost grows with log2 of the width" (fun () ->
        let c1 = Config.t3d ~n_pes:1 and c64 = Config.t3d ~n_pes:64 in
        check_true "wider costs more" (Config.barrier_cost c64 > Config.barrier_cost c1);
        check_int "log2 64 = 6 levels"
          (c64.Config.barrier_base + (6 * c64.Config.barrier_per_level))
          (Config.barrier_cost c64));
    case "lines_for_words rounds up" (fun () ->
        let c = Config.t3d ~n_pes:1 in
        check_int "1" 1 (Config.lines_for_words c 1);
        check_int "4" 1 (Config.lines_for_words c 4);
        check_int "5" 2 (Config.lines_for_words c 5));
    case "invalid configs are reported" (fun () ->
        let c = { (Config.t3d ~n_pes:4) with Config.local = 1 } in
        check_true "local < hit flagged" (Config.validate c <> []));
    case "every negative latency/cost field is rejected" (fun () ->
        let base = Config.t3d ~n_pes:4 in
        List.iter
          (fun (name, broken) ->
            check_true (name ^ " rejected") (Config.validate broken <> []))
          [
            ("hit", { base with Config.hit = -1 });
            ("hop", { base with Config.hop = -1 });
            ("link_occ", { base with Config.link_occ = -1 });
            ("store_local", { base with Config.store_local = -1 });
            ("store_remote", { base with Config.store_remote = -1 });
            ("pf_issue", { base with Config.pf_issue = -1 });
            ("pf_extract", { base with Config.pf_extract = -1 });
            ("annex_setup", { base with Config.annex_setup = -1 });
            ("annex_entries", { base with Config.annex_entries = -1 });
            ("vget_startup", { base with Config.vget_startup = -1 });
            ("vget_per_word", { base with Config.vget_per_word = -1 });
            ("barrier_base", { base with Config.barrier_base = -1 });
            ("barrier_per_level", { base with Config.barrier_per_level = -1 });
            ("flop", { base with Config.flop = -1 });
            ("loop_overhead", { base with Config.loop_overhead = -1 });
          ]);
    case "the rejection names the offending field" (fun () ->
        let broken = { (Config.t3d ~n_pes:4) with Config.pf_issue = -3 } in
        match Config.validate broken with
        | [ msg ] ->
            check_true "message mentions pf_issue"
              (String.length msg >= 8 && String.sub msg 0 8 = "pf_issue")
        | other ->
            Alcotest.failf "expected exactly one problem, got %d"
              (List.length other));
  ]

let machine_tests =
  [
    case "barrier aligns clocks to max plus the cost" (fun () ->
        let m = Machine.create (Config.t3d ~n_pes:4) in
        Pe.advance (Machine.pe m 2) 500;
        Machine.barrier m;
        let expect = 500 + Config.barrier_cost m.Machine.cfg in
        Array.iter
          (fun (p : Pe.t) -> check_int "aligned" expect p.Pe.clock)
          m.Machine.pes);
    case "barrier drains pending prefetches as unused" (fun () ->
        let m = Machine.create (Config.t3d ~n_pes:2) in
        let p = Machine.pe m 0 in
        ignore (Prefetch_queue.try_insert p.Pe.queue ~line:0 ~words:4 ~ready:1);
        Machine.barrier m;
        check_int "unused" 1 p.Pe.stats.Stats.pf_unused;
        check_int "queue emptied" 0 (Prefetch_queue.occupancy p.Pe.queue));
    case "total_stats sums across PEs but keeps barrier count" (fun () ->
        let m = Machine.create (Config.t3d ~n_pes:4) in
        (Machine.pe m 0).Pe.stats.Stats.reads <- 3;
        (Machine.pe m 1).Pe.stats.Stats.reads <- 4;
        Machine.barrier m;
        let s = Machine.total_stats m in
        check_int "reads" 7 s.Stats.reads;
        check_int "barriers" 1 s.Stats.barriers);
    case "bad config rejected at machine creation" (fun () ->
        check_true "raises"
          (try ignore (Machine.create { (Config.t3d ~n_pes:4) with Config.line_words = 0 }); false
           with Invalid_argument _ -> true));
  ]

let annex_tests =
  [
    case "first touch misses, second hits" (fun () ->
        let a = Dtb_annex.create ~entries:4 in
        check_false "miss" (Dtb_annex.touch a 7);
        check_true "hit" (Dtb_annex.touch a 7));
    case "capacity evicts the least recent" (fun () ->
        let a = Dtb_annex.create ~entries:2 in
        ignore (Dtb_annex.touch a 1);
        ignore (Dtb_annex.touch a 2);
        ignore (Dtb_annex.touch a 1);
        ignore (Dtb_annex.touch a 3);
        (* 2 was the least recent *)
        check_false "2 evicted" (Dtb_annex.touch a 2));
    qcheck "the array annex agrees with a list LRU at 0, 1 and 32 entries"
      QCheck.(list_of_size (Gen.int_range 0 200) (int_range 0 47))
      (fun touches ->
        List.for_all
          (fun entries ->
            (* the list LRU the annex used to be: most recent first *)
            let lru = ref [] in
            let list_touch pe =
              let hit = List.mem pe !lru in
              let l = pe :: List.filter (fun p -> p <> pe) !lru in
              lru := List.filteri (fun i _ -> i < entries) l;
              hit
            in
            let a = Dtb_annex.create ~entries in
            List.for_all
              (fun pe ->
                let hit = Dtb_annex.touch a pe in
                hit = list_touch pe && Dtb_annex.resident a = !lru)
              touches)
          [ 0; 1; 32 ]);
    case "a zero-entry annex validates and misses every remote touch (MXM/ccdp)"
      (fun () ->
        let machine ~n_pes =
          { (Config.t3d ~n_pes) with Config.annex_entries = 0 }
        in
        check_true "valid" (Config.validate (machine ~n_pes:4) = []);
        let w = Ccdp_workloads.Mxm.workload ~n:16 in
        let mode = Ccdp_runtime.Memsys.Ccdp in
        let { Ccdp_core.Pipeline.cfg; program; plan; _ } =
          Ccdp_core.Pipeline.for_mode ~machine ~n_pes:4 mode
            w.Ccdp_workloads.Workload.program
        in
        let r = Ccdp_runtime.Interp.run cfg program ~plan ~mode () in
        let v = Ccdp_runtime.Verify.against_sequential program ~init:ignore r in
        let s = r.Ccdp_runtime.Interp.stats in
        check_true "verifies" v.Ccdp_runtime.Verify.ok;
        check_int "no annex hits" 0 s.Stats.annex_hits;
        check_true "remote touches pay the set-up" (s.Stats.annex_misses > 0));
  ]

(* random operations on keys that collide often, and a table created
   small enough to grow *)
type op = Replace of int * int * int | Remove of int | Find of int | Clear

let op_gen =
  QCheck.Gen.(
    let key = int_range 0 40 in
    frequency
      [
        (5, map3 (fun k a b -> Replace (k, a, b)) key small_nat small_nat);
        (3, map (fun k -> Remove k) key);
        (3, map (fun k -> Find k) key);
        (1, return Clear);
      ])

let line_table_tests =
  [
    qcheck "the line table agrees with a Hashtbl on replace/remove/mem/find/clear"
      (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 300) op_gen))
      (fun ops ->
        let t = Line_table.create 1 and h = Hashtbl.create 8 in
        List.for_all
          (fun op ->
            (match op with
            | Replace (k, a, b) ->
                Line_table.replace t k ~v1:a ~v2:b;
                Hashtbl.replace h k (a, b)
            | Remove k ->
                Line_table.remove t k;
                Hashtbl.remove h k
            | Find _ -> ()
            | Clear ->
                Line_table.clear t;
                Hashtbl.reset h);
            let agrees k =
              let s = Line_table.find t k in
              let got =
                if s < 0 then None
                else Some (Line_table.v1 t s, Line_table.v2 t s)
              in
              got = Hashtbl.find_opt h k && Line_table.mem t k = Hashtbl.mem h k
            in
            Line_table.length t = Hashtbl.length h
            && (match op with
               | Replace (k, _, _) | Remove k | Find k -> agrees k
               | Clear -> true)
            && List.for_all agrees (List.init 41 Fun.id))
          ops);
  ]

let stats_tests =
  [
    case "merge sums counters" (fun () ->
        let a = Stats.create () and b = Stats.create () in
        a.Stats.hits <- 2;
        b.Stats.hits <- 3;
        a.Stats.pf_dropped <- 1;
        check_int "hits" 5 (Stats.merge a b).Stats.hits;
        check_int "dropped" 1 (Stats.merge a b).Stats.pf_dropped);
    case "derived totals" (fun () ->
        let a = Stats.create () in
        a.Stats.miss_local <- 2;
        a.Stats.miss_remote <- 3;
        a.Stats.pf_issued <- 4;
        a.Stats.pf_vector <- 1;
        check_int "misses" 5 (Stats.total_misses a);
        check_int "prefetches" 5 (Stats.total_prefetches a));
  ]

let () =
  (* Alcotest fits each test name to the width the longest group name
     leaves, so a group name past 7 characters would print every existing
     case name in this file cut shorter *)
  Alcotest.run "machine"
    [
      ("config", config_tests);
      ("machine", machine_tests);
      ("annex", annex_tests);
      ("lines", line_table_tests);
      ("stats", stats_tests);
    ]
