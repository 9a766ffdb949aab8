open Sandtable

(* The concurrent analogue of Core's Fp_store: fingerprints partitioned
   across N independent shards by Fingerprint.shard_key, each shard an
   open-addressed slot array over dense structure-of-arrays entry columns
   behind its own mutex.

   Entries carry provenance (parent fingerprint halves + interned event
   id, or an init index) and discovery depth. Cross-shard references are
   by fingerprint (not entry index), so shards stay fully independent and
   resume order is a non-issue.

   meta column layout: depth in the low 20 bits, provenance code (interned
   event id, or the init index) above, bit 60 set for roots. *)

let depth_bits = 20
let depth_mask = (1 lsl depth_bits) - 1
let code_mask = (1 lsl 40) - 1
let root_bit = 1 lsl 60

type prov =
  | Proot of int  (* index into the init-state list *)
  | Pstep of Fingerprint.t * Trace.event  (* parent fingerprint, event *)

type shard = {
  lock : Mutex.t;
  mutable slots : int array;  (* entry index + 1; 0 = empty *)
  mutable fp_hi : int array;
  mutable fp_lo : int array;
  mutable meta : int array;
  mutable pred_hi : int array;
  mutable pred_lo : int array;
  mutable n : int;
  mutable hits : int;
  mutable probes : int;
  ev_ids : (Trace.event, int) Hashtbl.t;
  mutable evs : Trace.event array;
  mutable ev_n : int;
}

type t = { shards : shard array; mask : int }

type stat = { s_entries : int; s_hits : int }

let rec power_of_two n = if n <= 1 then 1 else 2 * power_of_two ((n + 1) / 2)

let dummy_event = Trace.Heal

let make_shard cap =
  let ents = cap / 2 in
  { lock = Mutex.create ();
    slots = Array.make cap 0;
    fp_hi = Array.make ents 0;
    fp_lo = Array.make ents 0;
    meta = Array.make ents 0;
    pred_hi = Array.make ents 0;
    pred_lo = Array.make ents 0;
    n = 0;
    hits = 0;
    probes = 0;
    ev_ids = Hashtbl.create 64;
    evs = Array.make 64 dummy_event;
    ev_n = 0 }

let create ?(shards = 64) () =
  let n = min 65536 (power_of_two shards) in
  { shards = Array.init n (fun _ -> make_shard 1024); mask = n - 1 }

let shard_count t = Array.length t.shards
let shard_of t fp = t.shards.(Fingerprint.shard_key fp ~mask:t.mask)

let locked s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

(* ---- per-shard internals (call with the shard lock held) --------------- *)

let find_slot s (fp : Fingerprint.t) =
  let mask = Array.length s.slots - 1 in
  let i = ref (Fingerprint.bucket_hash fp land mask) in
  let steps = ref 0 in
  (try
     while s.slots.(!i) <> 0 do
       let e = s.slots.(!i) - 1 in
       if s.fp_hi.(e) = fp.hi && s.fp_lo.(e) = fp.lo then raise Exit;
       incr steps;
       i := (!i + 1) land mask
     done
   with Exit -> ());
  s.probes <- s.probes + !steps;
  !i

let grow_slots s =
  let cap = 2 * Array.length s.slots in
  let mask = cap - 1 in
  let slots = Array.make cap 0 in
  for e = 0 to s.n - 1 do
    let fp = Fingerprint.of_parts ~hi:s.fp_hi.(e) ~lo:s.fp_lo.(e) in
    let i = ref (Fingerprint.bucket_hash fp land mask) in
    while slots.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- e + 1
  done;
  s.slots <- slots

(* 1.5x column growth, as in Fp_store: appends need no rehash, and the
   columns dominate the per-shard bytes. *)
let grow_int a =
  let n = Array.length a in
  let b = Array.make (n + (n / 2) + 1) 0 in
  Array.blit a 0 b 0 n;
  b

let ensure_entry_room s =
  if s.n = Array.length s.fp_hi then begin
    s.fp_hi <- grow_int s.fp_hi;
    s.fp_lo <- grow_int s.fp_lo;
    s.meta <- grow_int s.meta;
    s.pred_hi <- grow_int s.pred_hi;
    s.pred_lo <- grow_int s.pred_lo
  end

let intern s ev =
  match Hashtbl.find_opt s.ev_ids ev with
  | Some id -> id
  | None ->
    let id = s.ev_n in
    if id = Array.length s.evs then begin
      let b = Array.make (2 * id) dummy_event in
      Array.blit s.evs 0 b 0 id;
      s.evs <- b
    end;
    s.evs.(id) <- ev;
    s.ev_n <- id + 1;
    Hashtbl.replace s.ev_ids ev id;
    id

let set_entry s e fp prov ~depth =
  if depth > depth_mask then invalid_arg "Shard_set: depth exceeds 2^20";
  (match prov with
  | Proot i ->
    s.meta.(e) <- depth lor (i lsl depth_bits) lor root_bit;
    s.pred_hi.(e) <- 0;
    s.pred_lo.(e) <- 0
  | Pstep (parent, ev) ->
    s.meta.(e) <- depth lor (intern s ev lsl depth_bits);
    s.pred_hi.(e) <- parent.Fingerprint.hi;
    s.pred_lo.(e) <- parent.Fingerprint.lo);
  s.fp_hi.(e) <- fp.Fingerprint.hi;
  s.fp_lo.(e) <- fp.Fingerprint.lo

let prov_of s e =
  let m = s.meta.(e) in
  let code = (m lsr depth_bits) land code_mask in
  if m land root_bit <> 0 then Proot code
  else Pstep (Fingerprint.of_parts ~hi:s.pred_hi.(e) ~lo:s.pred_lo.(e),
              s.evs.(code))

let depth_of s e = s.meta.(e) land depth_mask

(* ---- public operations ------------------------------------------------- *)

let add t fp prov ~depth =
  let s = shard_of t fp in
  locked s (fun () ->
      if 4 * (s.n + 1) > 3 * Array.length s.slots then grow_slots s;
      let slot = find_slot s fp in
      if s.slots.(slot) = 0 then begin
        ensure_entry_room s;
        let e = s.n in
        set_entry s e fp prov ~depth;
        s.slots.(slot) <- e + 1;
        s.n <- e + 1;
        true
      end
      else begin
        s.hits <- s.hits + 1;
        false
      end)

let with_entry t fp f =
  let s = shard_of t fp in
  locked s (fun () ->
      let slot = find_slot s fp in
      if s.slots.(slot) = 0 then None else Some (f s (s.slots.(slot) - 1)))

let find_prov_opt t fp = with_entry t fp prov_of

let find_prov t fp =
  match find_prov_opt t fp with Some p -> p | None -> raise Not_found

let find_depth_opt t fp = with_entry t fp depth_of

let mem t fp = with_entry t fp (fun _ _ -> ()) <> None

let iter t f =
  Array.iter
    (fun s ->
      locked s (fun () ->
          for e = 0 to s.n - 1 do
            f
              (Fingerprint.of_parts ~hi:s.fp_hi.(e) ~lo:s.fp_lo.(e))
              (prov_of s e) (depth_of s e)
          done))
    t.shards

let length t =
  Array.fold_left (fun n s -> n + locked s (fun () -> s.n)) 0 t.shards

let capacity t =
  Array.fold_left (fun n s -> n + Array.length s.slots) 0 t.shards

let store_bytes t =
  Array.fold_left
    (fun n s ->
      n
      + (Array.length s.slots
        + Array.length s.fp_hi + Array.length s.fp_lo + Array.length s.meta
        + Array.length s.pred_hi + Array.length s.pred_lo)
        * (Sys.word_size / 8))
    0 t.shards

let probe_steps t =
  Array.fold_left (fun n s -> n + locked s (fun () -> s.probes)) 0 t.shards

let stats t =
  Array.map
    (fun s -> locked s (fun () -> { s_entries = s.n; s_hits = s.hits }))
    t.shards

let pp_stats ppf t =
  let st = stats t in
  let entries = Array.fold_left (fun n s -> n + s.s_entries) 0 st in
  let hits = Array.fold_left (fun n s -> n + s.s_hits) 0 st in
  let nonempty = Array.fold_left (fun n s -> n + min 1 s.s_entries) 0 st in
  let biggest = Array.fold_left (fun n s -> max n s.s_entries) 0 st in
  Fmt.pf ppf "%d shards (%d nonempty), %d entries (max/shard %d), %d dedup hits"
    (Array.length st) nonempty entries biggest hits
