(* The domain-pool scheduler and its determinism contract: map_runs is
   observably List.mapi for every job count, worker failures carry run
   identity, and the experiment/fuzz/bench paths built on it produce
   byte-identical results at -j1 and -j4. *)

open Ccdp_core
open Ccdp_workloads
open Ccdp_test_support.Tutil
module Pool = Ccdp_exec.Pool

let pool_tests =
  [
    case "map_runs is List.mapi for any job count" (fun () ->
        let xs = List.init 37 (fun i -> i) in
        let f i x = (i * 100) + (x * x) in
        let expected = List.mapi f xs in
        List.iter
          (fun jobs ->
            check_true
              (Printf.sprintf "jobs=%d" jobs)
              (Pool.run ~jobs f xs = expected))
          [ 1; 2; 3; 4; 8 ]);
    case "empty and singleton inputs" (fun () ->
        check_true "empty" (Pool.run ~jobs:4 (fun _ x -> x) [] = ([] : int list));
        check_true "singleton" (Pool.run ~jobs:4 (fun i x -> (i, x)) [ 9 ] = [ (0, 9) ]));
    case "a pool survives several batches" (fun () ->
        Pool.with_pool ~jobs:3 (fun p ->
            check_int "jobs" 3 (Pool.jobs p);
            check_true "batch 1"
              (Pool.map_runs p (fun _ x -> x + 1) [ 1; 2; 3 ] = [ 2; 3; 4 ]);
            check_true "batch 2"
              (Pool.map_runs p (fun i _ -> i) [ 'a'; 'b' ] = [ 0; 1 ])));
    case "worker exceptions carry run identity" (fun () ->
        List.iter
          (fun jobs ->
            match
              Pool.run ~jobs
                ~label:(fun i -> Printf.sprintf "run-%d" i)
                (fun i x -> if i = 2 then failwith "boom" else x)
                [ 10; 11; 12; 13 ]
            with
            | _ -> Alcotest.fail "expected Run_failed"
            | exception Pool.Run_failed { index; label; exn } ->
                check_int "index" 2 index;
                check_true "label" (label = "run-2");
                check_true "exn" (exn = Failure "boom"))
          [ 1; 4 ]);
    case "lowest-index failure wins under parallel execution" (fun () ->
        match
          Pool.run ~jobs:4
            (fun i _ -> if i >= 5 then failwith (string_of_int i) else i)
            (List.init 16 (fun i -> i))
        with
        | _ -> Alcotest.fail "expected Run_failed"
        | exception Pool.Run_failed { index; _ } -> check_int "index" 5 index);
    case "map_shards is Array.init for any shard count" (fun () ->
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun p ->
                List.iter
                  (fun shards ->
                    let got = Pool.map_shards p ~shards (fun s -> s * s) in
                    check_true
                      (Printf.sprintf "jobs=%d shards=%d" jobs shards)
                      (got = Array.init shards (fun s -> s * s)))
                  [ 1; 2; 3; 8 ]))
          [ 1; 4 ]);
    case "map_shards is safe from inside a pool task" (fun () ->
        (* nested submission must serialize inline rather than deadlock on
           the pool's own workers *)
        Pool.with_pool ~jobs:3 (fun p ->
            let got =
              Pool.map_runs p
                (fun i _ ->
                  Array.to_list
                    (Pool.map_shards p ~shards:4 (fun s -> (i * 10) + s)))
                [ (); (); () ]
            in
            check_true "nested"
              (got
              = [
                  [ 0; 1; 2; 3 ]; [ 10; 11; 12; 13 ]; [ 20; 21; 22; 23 ];
                ])));
    case "map_shards failures carry the lowest shard index" (fun () ->
        Pool.with_pool ~jobs:4 (fun p ->
            match
              Pool.map_shards p ~shards:8 (fun s ->
                  if s >= 5 then failwith (string_of_int s) else s)
            with
            | _ -> Alcotest.fail "expected Run_failed"
            | exception Pool.Run_failed { index; label; exn } ->
                check_int "index" 5 index;
                check_true "label" (label = "");
                check_true "exn" (exn = Failure "5")));
    case "resolve_jobs precedence: argument, CCDP_JOBS, domain count" (fun () ->
        Unix.putenv "CCDP_JOBS" "3";
        check_int "explicit wins" 5 (Pool.resolve_jobs ~jobs:5 ());
        check_int "env" 3 (Pool.resolve_jobs ());
        Unix.putenv "CCDP_JOBS" "not-a-number";
        check_int "bad env falls through" (Domain.recommended_domain_count ())
          (Pool.resolve_jobs ());
        Unix.putenv "CCDP_JOBS" "0";
        check_int "zero falls through" (Domain.recommended_domain_count ())
          (Pool.resolve_jobs ());
        Unix.putenv "CCDP_JOBS" "129";
        check_int "above max_jobs falls through"
          (Domain.recommended_domain_count ())
          (Pool.resolve_jobs ());
        Unix.putenv "CCDP_JOBS" "";
        check_int "invalid arg falls to env"
          (Domain.recommended_domain_count ())
          (Pool.resolve_jobs ~jobs:0 ()));
  ]

(* ---- determinism of the rewired grids ------------------------------ *)

let small_ws () = [ Extras.jacobi ~n:12 ~iters:2; Extras.triad ~n:12 ]

let rows_equal (a : Experiment.row list) (b : Experiment.row list) = a = b

let determinism_tests =
  [
    case "evaluate: -j1 and -j4 produce identical row lists" (fun () ->
        let r1 = Experiment.evaluate ~jobs:1 ~pes:[ 1; 4 ] (small_ws ()) in
        let r4 = Experiment.evaluate ~jobs:4 ~pes:[ 1; 4 ] (small_ws ()) in
        check_int "row count" (List.length r1) (List.length r4);
        check_true "identical" (rows_equal r1 r4));
    case "ablation and sweep tables: -j1 equals -j4" (fun () ->
        let ws = small_ws () in
        let pairs =
          [
            ( Experiment.ablation_coherence_table ~n_pes:4 ~jobs:1 ws,
              Experiment.ablation_coherence_table ~n_pes:4 ~jobs:4 ws );
            ( Experiment.sweep_remote_table ~n_pes:4 ~points:[ 30; 90 ] ~jobs:1
                (List.hd ws),
              Experiment.sweep_remote_table ~n_pes:4 ~points:[ 30; 90 ] ~jobs:4
                (List.hd ws) );
          ]
        in
        List.iter
          (fun ((a : Experiment.table), b) -> check_true "table" (a = b))
          pairs);
    case "BENCH json payloads are identical across job counts" (fun () ->
        let payload jobs =
          let rows = Experiment.evaluate ~jobs ~pes:[ 1; 4 ] (small_ws ()) in
          let doc = Bench_json.create ~bench:"test" in
          Bench_json.add_rows doc rows;
          Bench_json.add_table doc (Experiment.table1 rows);
          Bench_json.payload_string doc
        in
        check_true "payloads" (payload 1 = payload 4));
    case "fuzz campaign: -j1 and -j4 produce identical summaries" (fun () ->
        let run jobs = Ccdp_fuzz.Driver.campaign ~jobs ~seed:5 ~count:20 () in
        let s1 = run 1 and s4 = run 4 in
        check_int "programs" s1.Ccdp_fuzz.Driver.s_programs
          s4.Ccdp_fuzz.Driver.s_programs;
        check_int "runs" s1.Ccdp_fuzz.Driver.s_runs s4.Ccdp_fuzz.Driver.s_runs;
        check_int "oracle checks" s1.Ccdp_fuzz.Driver.s_oracle_checks
          s4.Ccdp_fuzz.Driver.s_oracle_checks;
        check_true "summaries" (s1 = s4));
    case "fuzz campaign: intra-run sharding leaves the summary identical"
      (fun () ->
        let serial = Ccdp_fuzz.Driver.campaign ~jobs:1 ~seed:5 ~count:12 () in
        let sharded =
          Ccdp_fuzz.Driver.campaign ~shards:4 ~seed:5 ~count:12 ()
        in
        check_true "summaries" (serial = sharded));
    case "fault-injected fuzz failures are identical across job counts"
      (fun () ->
        let run jobs =
          Ccdp_fuzz.Driver.campaign ~jobs
            ~mutate_stale:(Ccdp_fuzz.Driver.drop_stale_mark 0) ~seed:11
            ~count:8 ()
        in
        let s1 = run 1 and s4 = run 4 in
        check_int "failure count"
          (List.length s1.Ccdp_fuzz.Driver.s_failures)
          (List.length s4.Ccdp_fuzz.Driver.s_failures);
        check_true "failures" (s1 = s4));
    case "fuzz progress trace is the sequential one" (fun () ->
        let trace jobs =
          let seen = ref [] in
          ignore
            (Ccdp_fuzz.Driver.campaign ~jobs
               ~progress:(fun i -> seen := i :: !seen)
               ~seed:3 ~count:12 ());
          List.rev !seen
        in
        check_true "monotonic 1..n" (trace 4 = List.init 12 (fun i -> i + 1));
        check_true "same as -j1" (trace 1 = trace 4));
  ]

(* ---- Bench_json shape ---------------------------------------------- *)

let json_tests =
  [
    case "envelope carries jobs and wall clock; payload does not" (fun () ->
        let doc = Bench_json.create ~bench:"shape" in
        Bench_json.add_table doc
          {
            Experiment.title = "t \"quoted\"";
            headers = [ "a"; "b" ];
            trows = [ [ "1"; "2" ] ];
          };
        let payload = Bench_json.payload_string doc in
        let full = Bench_json.to_string doc ~jobs:7 ~wall_clock_s:1.5 in
        let contains hay needle =
          let lh = String.length hay and ln = String.length needle in
          let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
          go 0
        in
        check_true "payload no jobs" (not (contains payload "\"jobs\""));
        check_true "full has jobs" (contains full "\"jobs\":7");
        check_true "full has wall" (contains full "\"wall_clock_s\":1.500000");
        check_true "escaped quote" (contains full "t \\\"quoted\\\"");
        check_true "payload embedded" (contains full "\"tables\":[{\"title\""));
    case "empty payload sections are omitted, not emitted as []" (fun () ->
        let contains hay needle =
          let lh = String.length hay and ln = String.length needle in
          let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
          go 0
        in
        (* a perf-only document: no dead "rows":[] / "tables":[] keys *)
        let doc = Bench_json.create ~bench:"perf" in
        Bench_json.add_perf doc
          {
            Bench_json.p_workload = "mxm";
            p_mode = "CCDP";
            p_engine = "plan";
            p_pes = 16;
            p_jobs = 4;
            p_wall_s = 0.25;
            p_cycles = 100;
            p_cycles_per_s = 400.0;
            p_accesses = 10;
            p_accesses_per_s = 40.0;
            p_minor_words = 8.0;
          };
        let payload = Bench_json.payload_string doc in
        let full = Bench_json.to_string doc ~jobs:4 ~wall_clock_s:0.5 in
        check_true "no rows key" (not (contains full "\"rows\""));
        check_true "no tables key" (not (contains full "\"tables\""));
        check_true "perf key present" (contains payload "\"perf\":[{");
        check_true "perf jobs" (contains payload "\"pes\":16,\"jobs\":4");
        (* an untouched document degenerates to an empty object, and the
           envelope stays well-formed (no trailing comma) *)
        let empty = Bench_json.create ~bench:"none" in
        check_true "empty payload" (Bench_json.payload_string empty = "{}");
        check_true "empty envelope"
          (Bench_json.to_string empty ~jobs:1 ~wall_clock_s:0.0
          = "{\"bench\":\"none\",\"jobs\":1,\"wall_clock_s\":0.000000}"));
    case "write emits BENCH_<bench>.json" (fun () ->
        let dir = Filename.temp_file "ccdp" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let doc = Bench_json.create ~bench:"unit" in
        let path = Bench_json.write ~dir doc ~jobs:1 ~wall_clock_s:0.0 in
        check_true "name" (Filename.basename path = "BENCH_unit.json");
        check_true "exists" (Sys.file_exists path);
        Sys.remove path;
        Sys.rmdir dir);
  ]

let () =
  Alcotest.run "exec"
    [
      ("pool", pool_tests);
      ("determinism", determinism_tests);
      ("bench_json", json_tests);
    ]
