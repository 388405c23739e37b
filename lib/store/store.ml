(* The persistent result store.  [D128] and [Key] live in the [keys]
   library below [mc] (the explorer's snapshot fingerprint uses them);
   they are re-exported here so every [Store.D128] and [Store.Key] path
   keeps working. *)

module D128 = Keys.D128
module Key = Keys.Key
module Json = Json
module Entry = Entry
module Disk = Disk
module Session = Session
