type t = {
  sets : int;
  lwords : int;
  tags : int array;  (** one slot per set; -1 = invalid *)
  data : float array;  (** sets*line_words payload *)
  vers : int array;  (** per-word version tags captured at fill/update *)
  fill_ticks : int array;  (** externally supplied fill stamps per slot *)
  states : int array;
      (** per-slot protocol state (Coherence.shared/exclusive/modified);
          meaningful only while the slot's tag is valid *)
  mutable last_ev_line : int;
      (** line displaced by the most recent fill; -1 = none *)
  mutable last_ev_state : int;  (** its protocol state at displacement *)
}

let create ~sets ~line_words =
  if sets <= 0 || line_words <= 0 then invalid_arg "Cache.create";
  {
    sets;
    lwords = line_words;
    tags = Array.make sets (-1);
    data = Array.make (sets * line_words) 0.0;
    vers = Array.make (sets * line_words) 0;
    fill_ticks = Array.make sets 0;
    states = Array.make sets 0;
    last_ev_line = -1;
    last_ev_state = 0;
  }

let of_config (cfg : Config.t) =
  create ~sets:(Config.lines cfg) ~line_words:cfg.line_words

let line_words t = t.lwords

(* a line's only slot is its set; -1 when another line (or none) holds it *)
let slot_of_line t line =
  let slot = line mod t.sets in
  if t.tags.(slot) = line then slot else -1

let locate t ~addr =
  let slot = slot_of_line t (addr / t.lwords) in
  if slot < 0 then -1 else (slot * t.lwords) + (addr mod t.lwords)

let read t ~addr =
  let off = locate t ~addr in
  if off < 0 then None else Some t.data.(off)

let data_at t off dst k = dst.(k) <- t.data.(off)
let probe_line t ~line = slot_of_line t line >= 0

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
  let slot = line mod t.sets in
  note_eviction t slot line;
  let evicted = if t.last_ev_line >= 0 then Some t.last_ev_line else None in
  t.tags.(slot) <- line;
  Array.blit payload 0 t.data (slot * t.lwords) t.lwords;
  (match vers with
  | Some v -> Array.blit v 0 t.vers (slot * t.lwords) t.lwords
  | None -> Array.fill t.vers (slot * t.lwords) t.lwords 0);
  t.fill_ticks.(slot) <- tick;
  t.states.(slot) <- state;
  evicted

let fill_from t ~tick ~state ~vers ~line ~src ~pos =
  let slot = line mod t.sets in
  note_eviction t slot line;
  t.tags.(slot) <- line;
  Array.blit src pos t.data (slot * t.lwords) t.lwords;
  if Array.length vers = 0 then Array.fill t.vers (slot * t.lwords) t.lwords 0
  else Array.blit vers pos t.vers (slot * t.lwords) t.lwords;
  t.fill_ticks.(slot) <- tick;
  t.states.(slot) <- state

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
  let off = locate t ~addr in
  if off >= 0 then begin
    t.data.(off) <- mem.(addr);
    if ver >= 0 then t.vers.(off) <- ver
  end

let word_version t ~addr =
  let off = locate t ~addr in
  if off < 0 then -1 else t.vers.(off)

let invalidate_line t ~line =
  let slot = slot_of_line t line in
  if slot >= 0 then t.tags.(slot) <- -1

let invalidate_all t = Array.fill t.tags 0 (Array.length t.tags) (-1)

let valid_lines t =
  Array.fold_left (fun acc tag -> if tag >= 0 then acc + 1 else acc) 0 t.tags
