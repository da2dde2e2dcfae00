type t = {
  id : int;
  mutable clock : int;
  cache : Cache.t;
  queue : Prefetch_queue.t;
  annex : Dtb_annex.t;
  stats : Stats.t;
}

let create (cfg : Config.t) id =
  {
    id;
    clock = 0;
    cache = Cache.of_config cfg;
    queue = Prefetch_queue.create ~capacity:cfg.prefetch_queue_words;
    annex = Dtb_annex.create ~entries:cfg.annex_entries;
    stats = Stats.create ();
  }

let advance t cycles =
  if cycles < 0 then invalid_arg "Pe.advance: negative cycles";
  t.clock <- t.clock + cycles
