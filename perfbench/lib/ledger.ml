(* Correctness bookkeeping: every checked operation is attempted once
   and either passes or fails; failures keep their reason for the
   report.  [error_rate] is failures over attempts.  Thread-safe:
   serve's client threads record their own pushes. *)

type t = {
  lock : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;
}

let create () =
  { lock = Mutex.create (); attempted = 0; failed = 0; reasons = [] }

let check t ok reason =
  Mutex.lock t.lock;
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.reasons < 20 then t.reasons <- reason :: t.reasons
  end;
  Mutex.unlock t.lock

let attempted t = t.attempted
let failed t = t.failed
let reasons t = List.rev t.reasons

let error_rate t =
  if t.attempted = 0 then 1. else float_of_int t.failed /. float_of_int t.attempted
