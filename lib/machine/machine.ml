type t = { cfg : Config.t; pes : Pe.t array }

let create cfg =
  (match Config.validate cfg with
  | [] -> ()
  | problems ->
      invalid_arg ("Machine.create: bad config: " ^ String.concat "; " problems));
  { cfg; pes = Array.init cfg.Config.n_pes (Pe.create cfg) }

let pe t i = t.pes.(i)
let time t = Array.fold_left (fun acc (p : Pe.t) -> max acc p.clock) 0 t.pes

let barrier t =
  let target = time t + Config.barrier_cost t.cfg in
  Array.iter
    (fun (p : Pe.t) ->
      p.Pe.clock <- target;
      let unused = Prefetch_queue.clear p.Pe.queue in
      p.Pe.stats.Stats.pf_unused <- p.Pe.stats.Stats.pf_unused + unused;
      p.Pe.stats.Stats.barriers <- p.Pe.stats.Stats.barriers + 1)
    t.pes

let total_stats t =
  Array.fold_left
    (fun acc (p : Pe.t) -> Stats.merge acc p.Pe.stats)
    (Stats.create ()) t.pes
