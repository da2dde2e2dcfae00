open Ccdp_workloads
open Ccdp_test_support.Tutil

let emit name =
  let w = Suite.find ~n:16 ~iters:2 name in
  let cfg = Ccdp_machine.Config.t3d ~n_pes:4 in
  Ccdp_core.Craft_emit.to_string (Ccdp_core.Pipeline.compile cfg w.Workload.program)

let contains hay needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

let tests =
  [
    case "mxm carries distribution directives and vector prefetches" (fun () ->
        let s = emit "mxm" in
        check_true "shared" (contains s "CDIR$ SHARED A(:, :BLOCK)");
        check_true "doshared" (contains s "CDIR$ DOSHARED (J)");
        check_true "vector" (contains s "C$CCDP VECTOR PREFETCH A(");
        check_true "program header" (contains s "PROGRAM MXM"));
    case "vpenta emits no prefetch annotations at all" (fun () ->
        let s = emit "vpenta" in
        check_false "no ccdp ops" (contains s "PREFETCH"));
    case "opaque shows software pipelining with runtime bounds" (fun () ->
        let s = emit "opaque" in
        check_true "sp" (contains s "SOFTWARE-PIPELINED PREFETCH");
        check_true "runtime bound" (contains s "!runtime"));
    case "dynamic shows moved-back and bypass annotations" (fun () ->
        let s = emit "dynamic" in
        check_true "dynamic sched" (contains s "!DYNAMIC(2)");
        check_true "mbp or bypass"
          (contains s "MOVED-BACK PREFETCH" || contains s "BYPASS-CACHE READ"));
    case "tomcatv shows covered group members" (fun () ->
        let s = emit "tomcatv" in
        check_true "covered" (contains s "COVERED BY LEADING REF"));
    case "every workload emits without raising" (fun () ->
        List.iter
          (fun (w : Workload.t) -> check_true w.name (String.length (emit w.name) > 200))
          (Suite.all ~n:16 ~iters:1 ()));
  ]

let () = Alcotest.run "emit" [ ("craft", tests) ]
