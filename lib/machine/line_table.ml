(* Open addressing with linear probing over a power-of-two capacity, kept
   at most half full. A slot is live when its stamp equals the table's
   generation, so [clear] is one increment; [remove] shifts the rest of
   the probe run back into the hole, so no tombstones build up between
   clears. *)
type t = {
  mutable keys : int array;
  mutable stamps : int array;  (** live iff = [gen]; -1 = free *)
  mutable v1s : int array;
  mutable v2s : int array;
  mutable gen : int;
  mutable count : int;
}

let create n =
  let cap = ref 8 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  {
    keys = Array.make !cap 0;
    stamps = Array.make !cap (-1);
    v1s = Array.make !cap 0;
    v2s = Array.make !cap 0;
    gen = 0;
    count = 0;
  }

let length t = t.count

let clear t =
  t.gen <- t.gen + 1;
  t.count <- 0

let home t k =
  let h = k * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 29)) land (Array.length t.keys - 1)

(* the slot holding [k], else the free slot ending its probe run *)
let probe t k =
  let mask = Array.length t.keys - 1 in
  let i = ref (home t k) in
  while t.stamps.(!i) = t.gen && t.keys.(!i) <> k do
    i := (!i + 1) land mask
  done;
  !i

let find t k =
  let i = probe t k in
  if t.stamps.(i) = t.gen then i else -1

let mem t k = find t k >= 0
let v1 t i = t.v1s.(i)
let v2 t i = t.v2s.(i)

let rec replace t k ~v1 ~v2 =
  let i = probe t k in
  if t.stamps.(i) = t.gen then begin
    t.v1s.(i) <- v1;
    t.v2s.(i) <- v2
  end
  else if 2 * (t.count + 1) > Array.length t.keys then begin
    grow t;
    replace t k ~v1 ~v2
  end
  else begin
    t.stamps.(i) <- t.gen;
    t.keys.(i) <- k;
    t.v1s.(i) <- v1;
    t.v2s.(i) <- v2;
    t.count <- t.count + 1
  end

and grow t =
  let keys = t.keys and stamps = t.stamps and v1s = t.v1s and v2s = t.v2s in
  let gen = t.gen and cap = 2 * Array.length keys in
  t.keys <- Array.make cap 0;
  t.stamps <- Array.make cap (-1);
  t.v1s <- Array.make cap 0;
  t.v2s <- Array.make cap 0;
  t.gen <- 0;
  t.count <- 0;
  for i = 0 to Array.length keys - 1 do
    if stamps.(i) = gen then replace t keys.(i) ~v1:v1s.(i) ~v2:v2s.(i)
  done

let remove t k =
  let i = find t k in
  if i >= 0 then begin
    let mask = Array.length t.keys - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while t.stamps.(!j) = t.gen do
      let h = home t t.keys.(!j) in
      (* the entry at [j] may fill the hole unless its home lies
         cyclically in (hole, j] *)
      let stays =
        if !hole <= !j then h > !hole && h <= !j else h > !hole || h <= !j
      in
      if not stays then begin
        t.keys.(!hole) <- t.keys.(!j);
        t.v1s.(!hole) <- t.v1s.(!j);
        t.v2s.(!hole) <- t.v2s.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    t.stamps.(!hole) <- -1;
    t.count <- t.count - 1
  end
