(* The daemon's STATS reply:
   [OK live=N conns=N traces=N events=N drops=N folds=N].  Fields are
   parsed by name, so a reply that gains fields still parses; a missing
   field is an error when it is asked for. *)

type t = (string * int) list

let parse line =
  let line = String.trim line in
  match String.split_on_char ' ' line with
  | "OK" :: fields -> (
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | "" :: rest -> go acc rest
      | f :: rest -> (
        match String.index_opt f '=' with
        | None -> Error (Printf.sprintf "bad STATS field %S" f)
        | Some i -> (
          let k = String.sub f 0 i in
          let v = String.sub f (i + 1) (String.length f - i - 1) in
          match int_of_string_opt v with
          | Some n when n >= 0 && k <> "" -> go ((k, n) :: acc) rest
          | _ -> Error (Printf.sprintf "bad STATS value in %S" f)))
    in
    match go [] fields with
    | Ok [] -> Error "empty STATS reply"
    | r -> r)
  | _ -> Error (Printf.sprintf "not a STATS reply: %S" line)

let field t name =
  match List.assoc_opt name t with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "STATS reply has no %s field" name)
