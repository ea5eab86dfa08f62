// Command app is the only caller of lib.UsedByApp.
package main

import "callers/internal/lib"

func main() { println(lib.UsedByApp()) }
