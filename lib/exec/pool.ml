exception Run_failed of { index : int; label : string; exn : exn }

(* OCaml 5.1 runs at most 128 domains at once, the calling one included
   (Max_domains on 64-bit hosts) *)
let max_jobs = 128

let resolve_jobs ?jobs () =
  match jobs with
  | Some j when j >= 1 -> j
  | _ -> (
      match Sys.getenv_opt "CCDP_JOBS" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some j when j >= 1 && j <= max_jobs -> j
          | _ -> Domain.recommended_domain_count ())
      | None -> Domain.recommended_domain_count ())

(* A published batch of tasks. Workers claim indices from [next] and run
   them; the last finisher signals [finished]. Tasks are closures that
   never raise (the wrapper stores the outcome by index). *)
type batch = {
  tasks : (unit -> unit) array;
  next : int Atomic.t;
  remaining : int Atomic.t;
  bm : Mutex.t;
  finished : Condition.t;
}

type t = {
  jobs : int;
  mutable domains : unit Domain.t list;
  m : Mutex.t;
  cv : Condition.t;  (* new batch published, or stop *)
  mutable current : batch option;
  mutable generation : int;
  mutable stop : bool;
}

let jobs t = t.jobs

(* Set while this domain is executing a batch task. A nested submission
   from inside a task would block on workers that are all busy with the
   enclosing batch; [map_shards] checks this flag and runs inline
   instead. *)
let in_task = Domain.DLS.new_key (fun () -> ref false)
let nested () = !(Domain.DLS.get in_task)

let drain (b : batch) =
  let n = Array.length b.tasks in
  let flag = Domain.DLS.get in_task in
  let rec claim () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < n then (
      flag := true;
      b.tasks.(i) ();
      flag := false;
      if Atomic.fetch_and_add b.remaining (-1) = 1 then (
        Mutex.lock b.bm;
        Condition.signal b.finished;
        Mutex.unlock b.bm);
      claim ())
  in
  claim ()

let worker pool =
  let rec loop gen =
    Mutex.lock pool.m;
    while (not pool.stop) && pool.generation = gen do
      Condition.wait pool.cv pool.m
    done;
    if pool.stop then Mutex.unlock pool.m
    else begin
      let b = Option.get pool.current in
      let gen = pool.generation in
      Mutex.unlock pool.m;
      drain b;
      loop gen
    end
  in
  loop 0

let create ~jobs =
  let pool =
    {
      jobs = max 1 jobs;
      domains = [];
      m = Mutex.create ();
      cv = Condition.create ();
      current = None;
      generation = 0;
      stop = false;
    }
  in
  if pool.jobs > 1 then
    pool.domains <-
      List.init (pool.jobs - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.m;
  pool.stop <- true;
  Condition.broadcast pool.cv;
  Mutex.unlock pool.m;
  List.iter Domain.join pool.domains;
  pool.domains <- []

let with_pool ?jobs f =
  let pool = create ~jobs:(resolve_jobs ?jobs ()) in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let default_label _ = ""

(* Publish [tasks] as the pool's current batch, help drain it from the
   calling domain, and wait for the last worker to finish. *)
let run_batch pool tasks =
  let b =
    {
      tasks;
      next = Atomic.make 0;
      remaining = Atomic.make (Array.length tasks);
      bm = Mutex.create ();
      finished = Condition.create ();
    }
  in
  Mutex.lock pool.m;
  pool.current <- Some b;
  pool.generation <- pool.generation + 1;
  Condition.broadcast pool.cv;
  Mutex.unlock pool.m;
  (* the calling domain is a worker too *)
  drain b;
  Mutex.lock b.bm;
  while Atomic.get b.remaining > 0 do
    Condition.wait b.finished b.bm
  done;
  Mutex.unlock b.bm

let map_runs ?(label = default_label) pool f xs =
  let inputs = Array.of_list xs in
  let n = Array.length inputs in
  if n = 0 then []
  else if pool.jobs <= 1 || n = 1 then
    List.mapi
      (fun i x ->
        try f i x
        with exn -> raise (Run_failed { index = i; label = label i; exn }))
      xs
  else begin
    let results = Array.make n None in
    run_batch pool
      (Array.init n (fun i () ->
           results.(i) <-
             Some (try Ok (f i inputs.(i)) with exn -> Error exn)));
    Array.to_list
      (Array.mapi
         (fun i r ->
           match r with
           | Some (Ok v) -> v
           | Some (Error exn) ->
               raise (Run_failed { index = i; label = label i; exn })
           | None -> assert false)
         results)
  end

let map_shards pool ~shards f =
  let n = max 0 shards in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let task s () = results.(s) <- Some (try Ok (f s) with exn -> Error exn) in
    if n = 1 || pool.jobs <= 1 || nested () then
      (* one shard, a serial pool, or already inside a batch task: run
         inline on this domain, in shard order *)
      for s = 0 to n - 1 do
        task s ()
      done
    else run_batch pool (Array.init n task);
    Array.mapi
      (fun s r ->
        match r with
        | Some (Ok v) -> v
        | Some (Error exn) -> raise (Run_failed { index = s; label = ""; exn })
        | None -> assert false)
      results
  end

let run ?jobs ?label f xs = with_pool ?jobs (fun p -> map_runs ?label p f xs)

let all_minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words
