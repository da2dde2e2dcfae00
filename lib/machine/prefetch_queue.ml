type entry = { line : int; words : int; ready : int }

type t = {
  cap : int;
  mutable occ : int;
  mutable items : entry list;  (** newest first *)
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Prefetch_queue.create";
  { cap = capacity; occ = 0; items = [] }

let capacity t = t.cap
let occupancy t = t.occ

(* a plain walk: a [List.find_map] closure would allocate on every read *)
let rec find_in line = function
  | [] -> -1
  | e :: rest -> if e.line = line then e.ready else find_in line rest

let find t ~line = find_in line t.items

let try_insert t ~line ~words ~ready =
  if find t ~line >= 0 then true
  else if t.occ + words > t.cap then false
  else begin
    t.items <- { line; words; ready } :: t.items;
    t.occ <- t.occ + words;
    true
  end

let remove t ~line =
  let removed = ref 0 in
  t.items <-
    List.filter
      (fun e ->
        if e.line = line then begin
          removed := !removed + e.words;
          false
        end
        else true)
      t.items;
  t.occ <- t.occ - !removed

let clear t =
  let n = List.length t.items in
  t.items <- [];
  t.occ <- 0;
  n

let entries t = List.rev t.items
