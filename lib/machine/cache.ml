type t = {
  sets : int;
  assoc : int;
  lwords : int;
  tags : int array;  (** sets*assoc slots; -1 = invalid *)
  data : float array;  (** sets*assoc*line_words payload *)
  vers : int array;  (** per-word version tags captured at fill/update *)
  last_use : int array;  (** recency stamp per slot *)
  fill_ticks : int array;  (** externally supplied fill stamps per slot *)
  states : int array;
      (** per-slot protocol state (Coherence.shared/exclusive/modified);
          meaningful only while the slot's tag is valid *)
  mutable tick : int;
  mutable last_ev_line : int;
      (** line displaced by the most recent fill; -1 = none *)
  mutable last_ev_state : int;  (** its protocol state at displacement *)
}

let create ~sets ~assoc ~line_words =
  if sets <= 0 || assoc <= 0 || line_words <= 0 then invalid_arg "Cache.create";
  {
    sets;
    assoc;
    lwords = line_words;
    tags = Array.make (sets * assoc) (-1);
    data = Array.make (sets * assoc * line_words) 0.0;
    vers = Array.make (sets * assoc * line_words) 0;
    last_use = Array.make (sets * assoc) 0;
    fill_ticks = Array.make (sets * assoc) 0;
    states = Array.make (sets * assoc) 0;
    tick = 0;
    last_ev_line = -1;
    last_ev_state = 0;
  }

let of_config (cfg : Config.t) =
  create ~sets:(Config.lines cfg / cfg.assoc) ~assoc:cfg.assoc
    ~line_words:cfg.line_words

let line_words t = t.lwords

let slot_of_line t line =
  let set = line mod t.sets in
  let base = set * t.assoc in
  let found = ref (-1) in
  for w = 0 to t.assoc - 1 do
    if t.tags.(base + w) = line then found := base + w
  done;
  !found

let touch t slot =
  t.tick <- t.tick + 1;
  t.last_use.(slot) <- t.tick

let read t ~addr =
  let line = addr / t.lwords in
  let slot = slot_of_line t line in
  if slot < 0 then None
  else begin
    touch t slot;
    Some t.data.((slot * t.lwords) + (addr mod t.lwords))
  end

let locate t ~addr =
  let line = addr / t.lwords in
  let slot = slot_of_line t line in
  if slot < 0 then -1
  else begin
    touch t slot;
    (slot * t.lwords) + (addr mod t.lwords)
  end

let data_at t off dst k = dst.(k) <- t.data.(off)

(* data-array offset of a resident word without a recency update; -1 on a
   miss *)
let word_offset t addr =
  let slot = slot_of_line t (addr / t.lwords) in
  if slot < 0 then -1 else (slot * t.lwords) + (addr mod t.lwords)

let probe_line t ~line = slot_of_line t line >= 0

(* reuse the slot if the line is already resident, else the LRU way *)
let slot_for_fill t line =
  let existing = slot_of_line t line in
  if existing >= 0 then existing
  else begin
    let base = line mod t.sets * t.assoc in
    let best = ref base in
    for w = 1 to t.assoc - 1 do
      if t.last_use.(base + w) < t.last_use.(!best) then best := base + w
    done;
    !best
  end

(* Photograph the displacement before overwriting the slot: the coherence
   protocols need the victim line (to drop its presence bit) and its state
   (a Modified victim owes a write-back charge). *)
let note_eviction t slot line =
  if t.tags.(slot) >= 0 && t.tags.(slot) <> line then begin
    t.last_ev_line <- t.tags.(slot);
    t.last_ev_state <- t.states.(slot)
  end
  else begin
    t.last_ev_line <- -1;
    t.last_ev_state <- 0
  end

let fill t ?(tick = 0) ?vers ?(state = 1) ~line payload =
  if Array.length payload <> t.lwords then invalid_arg "Cache.fill: payload size";
  (match vers with
  | Some v when Array.length v <> t.lwords ->
      invalid_arg "Cache.fill: version payload size"
  | Some _ | None -> ());
  let slot = slot_for_fill t line in
  note_eviction t slot line;
  let evicted = if t.last_ev_line >= 0 then Some t.last_ev_line else None in
  t.tags.(slot) <- line;
  Array.blit payload 0 t.data (slot * t.lwords) t.lwords;
  (match vers with
  | Some v -> Array.blit v 0 t.vers (slot * t.lwords) t.lwords
  | None -> Array.fill t.vers (slot * t.lwords) t.lwords 0);
  t.fill_ticks.(slot) <- tick;
  t.states.(slot) <- state;
  touch t slot;
  evicted

let fill_from t ~tick ~state ~vers ~line ~src ~pos =
  let slot = slot_for_fill t line in
  note_eviction t slot line;
  t.tags.(slot) <- line;
  Array.blit src pos t.data (slot * t.lwords) t.lwords;
  if Array.length vers = 0 then Array.fill t.vers (slot * t.lwords) t.lwords 0
  else Array.blit vers pos t.vers (slot * t.lwords) t.lwords;
  t.fill_ticks.(slot) <- tick;
  t.states.(slot) <- state;
  touch t slot

let last_evicted_line t = t.last_ev_line
let last_evicted_state t = t.last_ev_state

let line_state t ~line =
  let slot = slot_of_line t line in
  if slot < 0 then 0 else t.states.(slot)

let set_line_state t ~line state =
  let slot = slot_of_line t line in
  if slot >= 0 then t.states.(slot) <- state

let fill_tick t ~line =
  let slot = slot_of_line t line in
  if slot < 0 then -1 else t.fill_ticks.(slot)

let update_if_present t ~mem ~addr ~ver =
  let off = word_offset t addr in
  if off >= 0 then begin
    t.data.(off) <- mem.(addr);
    if ver >= 0 then t.vers.(off) <- ver
  end

let word_version t ~addr =
  let off = word_offset t addr in
  if off < 0 then -1 else t.vers.(off)

let invalidate_line t ~line =
  let slot = slot_of_line t line in
  if slot >= 0 then t.tags.(slot) <- -1

let invalidate_all t = Array.fill t.tags 0 (Array.length t.tags) (-1)

let valid_lines t =
  Array.fold_left (fun acc tag -> if tag >= 0 then acc + 1 else acc) 0 t.tags

let peek t ~addr =
  let off = word_offset t addr in
  if off < 0 then None else Some t.data.(off)
