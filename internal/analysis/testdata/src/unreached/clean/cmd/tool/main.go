// Command tool is a main package: main is a root.
package main

func main() { run() }

func run() {}
