(* Slot [i] of [slots] is domain [i]'s value.  Only domain [i] ever fills
   slot [i], so two domains never race to make the same value; they can
   only race to grow the array, which [mutex] serializes (copy, fill,
   publish).  Domain ids are never reused, so a slot, once filled, keeps
   its value. *)
type 'a t = {
  make : unit -> 'a;
  mutex : Mutex.t;
  slots : 'a option array Atomic.t;
  mutable made : 'a list;  (* guarded by [mutex] *)
}

let create make = { make; mutex = Mutex.create (); slots = Atomic.make [||]; made = [] }

let add t id =
  let v = t.make () in
  Mutex.lock t.mutex;
  let cur = Atomic.get t.slots in
  let len = Array.length cur in
  let next = Array.make (if id < len then len else max (id + 1) (2 * len)) None in
  Array.blit cur 0 next 0 len;
  next.(id) <- Some v;
  Atomic.set t.slots next;
  t.made <- v :: t.made;
  Mutex.unlock t.mutex;
  v

(* [Domain.self] is a C call; one process-wide DLS key remembers each
   domain's id, so a lookup reads it without leaving OCaml. *)
let self_id = Domain.DLS.new_key (fun () -> (Domain.self () :> int))

let get t =
  let id = Domain.DLS.get self_id in
  let slots = Atomic.get t.slots in
  if id < Array.length slots then
    match Array.unsafe_get slots id with Some v -> v | None -> add t id
  else add t id

let all t =
  Mutex.lock t.mutex;
  let made = t.made in
  Mutex.unlock t.mutex;
  made
