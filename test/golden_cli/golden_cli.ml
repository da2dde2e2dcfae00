(* Golden pin of the ccdp front end's exit codes: runs the built ccdp over
   a fixed list of argument vectors and prints each one's exit status and
   first line of standard error. Every vector stops at argument or size
   checking, so none creates a domain pool or simulates anything. The
   table the codes follow is in every subcommand's --help: 0 success,
   1 a wrong answer, 2 a malformed CRAFT file, 124 a command-line error,
   125 a bug. Regenerate with `dune runtest`, accept intentional changes
   with `dune promote`. *)

let cases ~heat2d ~malformed ~zerodim =
  [
    (* a size one suite workload rejects, or no size at all *)
    ([], [ "list"; "-n"; "6" ]);
    ([], [ "bench"; "table1"; "-n"; "10"; "--pes"; "1" ]);
    ([], [ "bench"; "ablate"; "-n"; "10" ]);
    ([], [ "check"; "--all"; "-n"; "10" ]);
    (* checks no suite workload, so certifies *)
    ([], [ "check"; heat2d; "-n"; "10" ]);
    ([], [ "list"; "-n"; "0" ]);
    ([], [ "bench"; "-n"; "0" ]);
    ([], [ "run"; "mxm"; "-n"; "0" ]);
    ([], [ "run"; "mxm"; "--pe"; "0" ]);
    ([], [ "bench"; "--pes"; "0" ]);
    ([], [ "bench"; "--pe"; "0" ]);
    ([], [ "run"; "tomcatv"; "--iters"; "0" ]);
    ([], [ "list"; "--iters=-1" ]);
    ([], [ "fuzz"; "--count=-1" ]);
    (* job counts outside 1..128, from a flag or the environment *)
    ([], [ "bench"; "-j"; "0" ]);
    ([], [ "bench"; "-j"; "129" ]);
    ([], [ "fuzz"; "--shards"; "0" ]);
    ([], [ "fuzz"; "--shards"; "129" ]);
    ([ "CCDP_SHARDS=0" ], [ "fuzz" ]);
    ([], [ "bench"; "-j"; "x"; "table1" ]);
    (* no table command outside [bench], and no size preset: -n, --iters,
       --pes and --pe size every study *)
    ([], [ "table1" ]);
    ([], [ "table2" ]);
    ([], [ "ablate" ]);
    ([], [ "sweep" ]);
    ([], [ "bench"; "--full" ]);
    (* one command runs a program: no [load] or [profile], no way to skip
       verification, and only the modes' own short names *)
    ([], [ "load" ]);
    ([], [ "profile" ]);
    ([], [ "run"; "mxm"; "--verify"; "false" ]);
    ([], [ "run"; "mxm"; "--mode"; "invalidate" ]);
    (* unknown names and missing files *)
    ([], [ "bench"; "tabel1" ]);
    ([], [ "bench"; "micro" ]);
    ([], [ "bench"; "--machine"; "nosuch" ]);
    ([], [ "run"; "nosuch" ]);
    ([], [ "check"; "nosuch" ]);
    ([], [ "run"; "nosuch.craft" ]);
    ([], [ "check"; "nosuch.craft" ]);
    (* a malformed CRAFT file, through the one TARGET reader *)
    ([], [ "run"; malformed ]);
    ([], [ "analyze"; malformed ]);
    ([], [ "check"; malformed ]);
    (* a zero-size array dimension, likewise *)
    ([], [ "run"; zerodim ]);
    ([], [ "check"; zerodim ]);
  ]

(* the inherited environment, minus the variables a case may set *)
let base_env =
  Array.of_list
    (List.filter
       (fun kv ->
         not
           (List.exists
              (fun v -> String.starts_with ~prefix:(v ^ "=") kv)
              [ "CCDP_JOBS"; "CCDP_SHARDS" ]))
       (Array.to_list (Unix.environment ())))

let run ccdp (env, args) =
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process_env ccdp
      (Array.of_list (ccdp :: args))
      (Array.append (Array.of_list env) base_env)
      Unix.stdin null err_w
  in
  Unix.close err_w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr err_r in
  let first = try input_line ic with End_of_file -> "" in
  (try
     while true do
       ignore (input_line ic)
     done
   with End_of_file -> ());
  close_in ic;
  let status =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> string_of_int c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Printf.sprintf "signal %d" s
  in
  Printf.printf "%s -> %s%s\n"
    (String.concat " " (env @ ("ccdp" :: args)))
    status
    (if first = "" then "" else ": " ^ first)

let () =
  let ccdp = Sys.argv.(1) and heat2d = Sys.argv.(2) in
  let malformed = Sys.argv.(3) and zerodim = Sys.argv.(4) in
  List.iter (run ccdp) (cases ~heat2d ~malformed ~zerodim)
